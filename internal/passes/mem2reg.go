package passes

import (
	"repro/internal/ir"
)

// mem2reg promotes the simplest alloca pattern to a direct SSA value:
// a scalar slot with exactly one store, located in the entry block before
// every load. This covers parameter spills (store %param at entry) and
// once-initialized locals — and, importantly for unseq-aa, it makes every
// use of such a pointer the *same IR value*, so a mustnotalias fact
// recorded at an annotation site applies verbatim to the loop accesses.
//
// Allocas referenced by ubcheck instructions are left alone (the
// sanitizer needs real addresses); mustnotalias intrinsics over a
// promoted slot become meaningless and are deleted.
//
// The use lists come from the analysis manager and are rebuilt once per
// round, not once per promotion: every eligible alloca in a round is
// promoted against the same lists, and the dead instructions of the
// whole round (an ID-indexed set) are swept from the blocks in a single
// filter pass. Staleness within a round is benign — a promotion retires
// its own alloca/store/loads (which no other alloca's use list
// references, since a load or store of slot C appears only in C's list
// and its value operand's) plus shared mustnotalias intrinsics
// (retiring an already-retired instruction is a no-op), and any alloca
// whose address flowed into a retired instruction was already rejected
// by the escape check (the use list still carries the instruction), so
// it just retries next round against fresh lists. Because the lists go
// stale within a round, a retired load's uses are replaced by walking
// the whole function, not through the lists. The final round makes no
// changes, leaving the cached lists exact — which is why the pass can
// preserve AnalysisUses.
func mem2reg(f *ir.Func, am *AnalysisManager) int {
	promoted := 0
	entry := f.Entry()
	if entry == nil {
		return 0
	}
	del := make([]bool, f.NumIDs())
	for {
		uses := am.Uses()
		clear(del)
		before := promoted
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpAlloca || in.AllocSz > 8 || del[in.ID] {
					continue
				}
				var store *ir.Instr
				var loads []*ir.Instr
				var deadIntrinsics []*ir.Instr
				ok := true
				for _, u := range uses.Of(in) {
					switch {
					case u.Op == ir.OpStore && u.Args[0] == in && u.Args[1] != in:
						if store != nil {
							ok = false
						}
						store = u
					case u.Op == ir.OpLoad && u.Args[0] == in:
						loads = append(loads, u)
					case u.Op == ir.OpMustNotAlias:
						deadIntrinsics = append(deadIntrinsics, u)
					default:
						ok = false // address escapes / ubcheck / gep
					}
					if !ok {
						break
					}
				}
				if !ok || store == nil || store.Block() != entry {
					continue
				}
				// Every entry-block load must come after the store.
				storeIdx := indexIn(entry, store)
				for _, ld := range loads {
					if ld.Block() == entry && indexIn(entry, ld) < storeIdx {
						ok = false
						break
					}
					if ld.Cls != store.Args[1].Class() {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				v := store.Args[1]
				del[in.ID] = true
				del[store.ID] = true
				for _, ld := range loads {
					// The slot truncates the stored value to the load width
					// and the load re-extends it per its signedness; when v's
					// canonical form differs, the load becomes the convert
					// that replays that round-trip instead of vanishing.
					if cv, exact := canonicalFor(v, ld.Cls, ld.Unsigned); exact {
						replaceUses(f, ld, cv)
						del[ld.ID] = true
					} else {
						ld.Op = ir.OpConvert
						ld.Args = []ir.Value{v}
					}
				}
				for _, mi := range deadIntrinsics {
					del[mi.ID] = true
				}
				promoted++
			}
		}
		if promoted == before {
			break
		}
		for _, bb := range f.Blocks {
			var out []*ir.Instr
			for _, x := range bb.Instrs {
				if !del[x.ID] {
					out = append(out, x)
				}
			}
			bb.Instrs = out
		}
		am.InvalidateUses()
	}
	return promoted
}

func indexIn(b *ir.Block, target *ir.Instr) int {
	for i, in := range b.Instrs {
		if in == target {
			return i
		}
	}
	return -1
}
