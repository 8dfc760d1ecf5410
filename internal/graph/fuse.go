package graph

// fuse derives the stream of fault-free runs from the lowered one. Within
// each straight-line segment (control flow and jump targets are segment
// borders, so nothing crosses a loop or branch head) it
//
//   - drops the pure consultation points: exchanges that move no data and nil
//     host callbacks exist only for the injector, which this stream never
//     sees;
//   - hoists every reduction partial behind the kernel that produces its
//     operand (see hoist);
//   - replaces each adjacent run `spmv dot{1,2}` or `assign{1..3} dot{0..2}`
//     that FuseKernels has a loop for with one opCompute. A run without
//     a loop stays as it is.
//
// Both rewrites keep every kernel's arithmetic and per-block accumulation
// order, so the fused stream leaves bit for bit the state the lowered one
// leaves.
func fuse(plain []instr) ([]instr, FusionReport) {
	rep := FusionReport{Groups: map[string]int{}}
	control := func(op opcode) bool {
		return op == opRepeat || op == opWhile || op == opBranch || op == opJump
	}
	target := make([]bool, len(plain)+1)
	for i := range plain {
		if control(plain[i].op) {
			target[plain[i].target] = true
		}
	}
	out := make([]instr, 0, len(plain))
	moved := make([]int, len(plain)+1) // new index of every segment start
	for lo := 0; lo < len(plain); {
		moved[lo] = len(out)
		if control(plain[lo].op) {
			out = append(out, plain[lo])
			lo++
			continue
		}
		var seg []instr
		for start := lo; lo < len(plain) && !control(plain[lo].op) && (lo == start || !target[lo]); lo++ {
			if in := &plain[lo]; (in.op == opMoves && !movesData(in)) || (in.op == opHost && in.host == nil) {
				continue
			}
			seg = append(seg, plain[lo])
		}
		rep.Hoists += hoist(seg)
		out = group(out, seg, rep.Groups)
	}
	moved[len(plain)] = len(out)
	for i := range out {
		if control(out[i].op) {
			out[i].target = moved[out[i].target]
		}
	}
	return out, rep
}

func movesData(in *instr) bool {
	for i := range in.moves {
		if in.moves[i].Do != nil {
			return true
		}
	}
	return false
}

// hoist moves each reduce-partial kernel of the segment up to the kernel that
// writes one of its operands, provided that producer is a fusable kernel and
// nothing in between writes its operands, touches its partials or is a
// barrier (a host callback, a codelet fallback, an exchange that moves data,
// a kernel with an unknown write set). It lands behind the assigns and
// partials that already follow the producer, where group finds it. CG's r·r
// is scheduled after beta, p and rzOld, none of which touch r: it ends up
// next to r·z. Returns the number of kernels moved.
func hoist(seg []instr) int {
	hoists := 0
	for i := range seg {
		k := seg[i].kern
		if k == nil || k.Kind != KernelReducePartial {
			continue
		}
		reads := make(map[*Buffer]bool, len(k.Reads))
		for _, b := range k.Reads {
			reads[b] = true
		}
		at := -1
	scan:
		for j := i - 1; j >= 0; j-- {
			o := seg[j].kern
			if o == nil || o.Barrier || o.Sink == k.Sink {
				break
			}
			for _, b := range o.Writes {
				if reads[b] {
					if o.Kind == KernelSpMV || o.Kind == KernelAssign {
						at = j + 1
					}
					break scan
				}
			}
		}
		if at < 0 {
			continue
		}
		for at < i && seg[at].kern != nil &&
			(seg[at].kern.Kind == KernelAssign || seg[at].kern.Kind == KernelReducePartial) {
			at++
		}
		if at < i {
			in := seg[i]
			copy(seg[at+1:i+1], seg[at:i])
			seg[at] = in
			hoists++
		}
	}
	return hoists
}

// group appends the segment to out, fusing what the loop table can fuse, and
// counts the fused kernels by signature.
func group(out, seg []instr, groups map[string]int) []instr {
	kind := func(i int) KernelKind {
		if i < len(seg) && seg[i].kern != nil {
			return seg[i].kern.Kind
		}
		return KernelOpaque
	}
	for i := 0; i < len(seg); {
		n := i
		switch kind(i) {
		case KernelSpMV:
			n++
		case KernelAssign:
			for n < i+3 && kind(n) == KernelAssign {
				n++
			}
		}
		for dots := 0; n > i && dots < 2 && kind(n) == KernelReducePartial; dots++ {
			n++
		}
		run := make([]*NativeKernel, 0, n-i)
		for _, in := range seg[i:n] {
			run = append(run, in.kern)
		}
		step := 1
		for ; len(run) >= 2; run = run[:len(run)-1] { // the longest prefix the table has a loop for
			if fn, sig := FuseKernels(run); fn != nil {
				out = append(out, instr{op: opCompute, name: seg[i].name, fn: fn, sets: uint64(len(run))})
				groups[sig]++
				step = len(run)
				break
			}
		}
		if step == 1 {
			out = append(out, seg[i])
		}
		i += step
	}
	return out
}
