package solver

// The generators of the kernel property tests, for the external-package
// fusion property test (which needs packages that import this one).
var (
	RaggedSystem = raggedSystem
	RandVec      = randVec
)
