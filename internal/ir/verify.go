package ir

import "fmt"

// Verify checks the module's structural invariants: every block ends in
// exactly one terminator, edge lists are consistent, phi arity matches
// predecessor counts, operand types are coherent, instruction IDs are
// unique per function, and each block's Index is its position in
// Func.Blocks (the control-flow analyses index dense tables by it). It
// returns the first violation found.
func Verify(m *Module) error {
	for _, f := range m.Funcs {
		if err := verifyFunc(f); err != nil {
			return fmt.Errorf("ir: %s: %w", f.Name, err)
		}
	}
	return nil
}

func verifyFunc(f *Func) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("no blocks")
	}
	seen := map[int]bool{}
	for pos, b := range f.Blocks {
		if b.Fn != f {
			return fmt.Errorf("block %s has wrong parent", b)
		}
		if b.Index != pos {
			return fmt.Errorf("block %s sits at position %d of the block list", b, pos)
		}
		term := b.Term()
		if term == nil {
			return fmt.Errorf("block %s lacks a terminator", b)
		}
		for i, in := range b.Instrs {
			if seen[in.ID] {
				return fmt.Errorf("duplicate instruction id %d in %s", in.ID, b)
			}
			seen[in.ID] = true
			if in.Blk != b {
				return fmt.Errorf("instr %s not parented to %s", FormatInstr(in), b)
			}
			if in.IsTerminator() && i != len(b.Instrs)-1 {
				return fmt.Errorf("terminator %s mid-block in %s", FormatInstr(in), b)
			}
			if err := verifyInstr(in); err != nil {
				return fmt.Errorf("in %s: %s: %w", b, FormatInstr(in), err)
			}
		}
		switch term.Op {
		case OpBr:
			if len(b.Succs) != 1 {
				return fmt.Errorf("br block %s has %d successors", b, len(b.Succs))
			}
		case OpCondBr:
			if len(b.Succs) != 2 {
				return fmt.Errorf("condbr block %s has %d successors", b, len(b.Succs))
			}
		case OpRet:
			if len(b.Succs) != 0 {
				return fmt.Errorf("ret block %s has successors", b)
			}
		}
		for _, s := range b.Succs {
			if s.predIndex(b) < 0 {
				return fmt.Errorf("edge %s->%s missing from pred list", b, s)
			}
		}
		for _, p := range b.Preds {
			found := false
			for _, s := range p.Succs {
				if s == b {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("edge %s->%s missing from succ list", p, b)
			}
		}
	}
	return nil
}

func verifyInstr(in *Instr) error {
	for i, a := range in.Args {
		if a == nil {
			return fmt.Errorf("nil operand %d", i)
		}
	}
	switch in.Op {
	case OpLoad:
		if !IsPointer(in.Args[0].Type()) {
			return fmt.Errorf("load from non-pointer")
		}
		if !Equal(Pointee(in.Args[0].Type()), in.Ty) {
			return fmt.Errorf("load type %s mismatches pointee %s", in.Ty, Pointee(in.Args[0].Type()))
		}
	case OpStore:
		if !IsPointer(in.Args[1].Type()) {
			return fmt.Errorf("store to non-pointer")
		}
		if !Equal(Pointee(in.Args[1].Type()), in.Args[0].Type()) {
			return fmt.Errorf("store of %s into %s*", in.Args[0].Type(), Pointee(in.Args[1].Type()))
		}
	case OpIndex:
		if !IsPointer(in.Args[0].Type()) {
			return fmt.Errorf("index of non-pointer")
		}
		if !Equal(in.Args[1].Type(), Int) {
			return fmt.Errorf("index with non-int")
		}
	case OpField:
		st, ok := Pointee(in.Args[0].Type()).(*StructType)
		if !ok {
			return fmt.Errorf("field of non-struct pointer")
		}
		if in.FieldIdx < 0 || in.FieldIdx >= len(st.Fields) {
			return fmt.Errorf("field index %d out of range for %s", in.FieldIdx, st)
		}
	case OpPhi:
		if len(in.Args) != len(in.Blk.Preds) {
			return fmt.Errorf("phi arity %d != %d preds", len(in.Args), len(in.Blk.Preds))
		}
		for _, a := range in.Args {
			if !Equal(a.Type(), in.Ty) {
				return fmt.Errorf("phi incoming type %s != %s", a.Type(), in.Ty)
			}
		}
	case OpCondBr:
		if !Equal(in.Args[0].Type(), Int) {
			return fmt.Errorf("condbr on non-int")
		}
	case OpCall:
		if in.Callee != nil {
			if len(in.Args) != len(in.Callee.Params) {
				return fmt.Errorf("call arity %d != %d params of %s", len(in.Args), len(in.Callee.Params), in.Callee.Name)
			}
			for i, a := range in.Args {
				if !Equal(a.Type(), in.Callee.Params[i].Ty) {
					return fmt.Errorf("call arg %d type %s != param %s", i, a.Type(), in.Callee.Params[i].Ty)
				}
			}
		}
	}
	return nil
}
