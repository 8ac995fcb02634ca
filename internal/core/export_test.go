package core

// SameAutomatonState reports whether a replay holds exactly the live
// runtime's MDFS automaton state.
func SameAutomatonState(r *Replay, m *MAGUS) bool { return r.sameState(&m.mdfs) }
