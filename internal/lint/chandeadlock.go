package lint

import "go/ast"

// AnalyzerChanDeadlock flags unbuffered-channel operations that can never
// complete given the module's spawn graph, plus busy-spin select loops.
// Three shapes:
//
//  1. A blocking send on an unbuffered channel that no function in the
//     module ever receives from (or a blocking receive nobody sends on or
//     closes): the goroutine parks forever — a leak at best, a deadlock
//     when anything joins on it.
//  2. All sends and receives of an unbuffered channel living in the same
//     function with no goroutine between them: a sequential rendezvous
//     with itself blocks on the first send.
//  3. `for { select { default: } }` (a select whose only case is
//     default, inside a loop): a 100%-CPU spin that starves the very
//     goroutines it is waiting for.
//
// Channels are tracked only while their identity is static — a visible
// make, every make unbuffered, and no escape (argument pass, return,
// store, rebind). Anything escaping is assumed correctly paired.
var AnalyzerChanDeadlock = &Analyzer{
	Name:       "chan-deadlock",
	Doc:        "flags unbuffered channel ops with no counterpart in the spawn graph and select-default spin loops",
	Severity:   SeverityWarn,
	RunProgram: runChanDeadlock,
}

func runChanDeadlock(pp *ProgramPass) {
	conc := pp.Prog.Concurrency()
	for _, n := range pp.Prog.Nodes {
		if body := n.Body(); body != nil {
			reportSpinLoops(pp, body)
		}
	}
	for _, key := range conc.ChanKeys() {
		ci := conc.Chans[key]
		var makes, sends, recvs, closes []*ChanEndpoint
		escaped, allUnbuffered := false, true
		for _, ep := range ci.Endpoints {
			switch ep.Op {
			case ChanMake:
				makes = append(makes, ep)
				if !ep.Unbuffered {
					allUnbuffered = false
				}
			case ChanSend:
				sends = append(sends, ep)
			case ChanRecv:
				recvs = append(recvs, ep)
			case ChanClose:
				closes = append(closes, ep)
			case ChanEscape:
				escaped = true
			}
		}
		if escaped || len(makes) == 0 || !allUnbuffered {
			continue
		}
		switch {
		case len(sends) > 0 && len(recvs) == 0:
			for _, s := range sends {
				if s.NonBlocking {
					continue
				}
				pp.Reportf(s.Pos, "send on unbuffered channel %s has no receive anywhere in the module; this send blocks its goroutine forever", ci.Display)
			}
		case len(recvs) > 0 && len(sends) == 0 && len(closes) == 0:
			for _, r := range recvs {
				if r.NonBlocking {
					continue
				}
				pp.Reportf(r.Pos, "receive on unbuffered channel %s has no send or close anywhere in the module; this receive blocks its goroutine forever", ci.Display)
			}
		case len(sends) > 0 && len(recvs) > 0:
			if rendezvous := sameNodeRendezvous(sends, recvs); rendezvous != nil {
				pp.Reportf(rendezvous.Pos, "unbuffered channel %s is sent and received only within %s; a sequential rendezvous with itself blocks on the first send — spawn the counterpart or buffer the channel", ci.Display, rendezvous.Node.Name)
			}
		}
	}
}

// sameNodeRendezvous reports the first blocking send when every send and
// receive of the channel lives in one function (so nothing can ever be on
// the other side), or nil.
func sameNodeRendezvous(sends, recvs []*ChanEndpoint) *ChanEndpoint {
	var node *Node
	var first *ChanEndpoint
	for _, ep := range append(append([]*ChanEndpoint(nil), sends...), recvs...) {
		if ep.NonBlocking {
			return nil
		}
		if node == nil {
			node = ep.Node
		} else if ep.Node != node {
			return nil
		}
	}
	for _, s := range sends {
		if first == nil || s.Pos < first.Pos {
			first = s
		}
	}
	return first
}

// reportSpinLoops flags `for { select { default: } }`: a loop whose body
// is exactly one select whose only clause is default.
func reportSpinLoops(pp *ProgramPass, body *ast.BlockStmt) {
	inspectShallow(body, func(m ast.Node) bool {
		loop, ok := m.(*ast.ForStmt)
		if !ok || len(loop.Body.List) != 1 {
			return true
		}
		sel, ok := loop.Body.List[0].(*ast.SelectStmt)
		if !ok || len(sel.Body.List) != 1 {
			return true
		}
		cc, ok := sel.Body.List[0].(*ast.CommClause)
		if !ok || cc.Comm != nil {
			return true
		}
		pp.Reportf(loop.For, "select with only a default case inside a loop busy-spins at 100%% CPU; add a blocking case, a ticker, or remove the select")
		return true
	})
}
