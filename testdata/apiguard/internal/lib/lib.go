// Package lib declares one export main calls, one nothing calls, and a
// type whose String method only fmt reaches.
package lib

// Used is called by main.
func Used() int { return 1 }

// Unused has no caller; the checker must flag it.
func Unused() int { return 2 }

// T is printed by main; fmt reaches its String method.
type T struct{}

func (T) String() string { return "t" }
