// Package a plants one identifier for each verdict the exported-API guard
// must get right.
package a

// Used is called from cmd/tool: referenced.
func Used() int { return 1 }

// Unused is called only from a_test.go: reported.
func Unused() int { return 2 }

// Shared has the same name as b.Shared, which b uses; this one nothing
// calls: reported.
func Shared() int { return 3 }

// Impl is returned by New, so the type is referenced.
type Impl struct {
	// Spare is never read or written: reported.
	Spare int
}

// New returns an Impl.
func New() Impl { return Impl{} }

// Describe is only ever called through b.Describer: referenced.
func (Impl) Describe() string { return "impl" }

// Orphan appears only in its own method's receiver: reported.
type Orphan struct{}

// Unreached is never called: reported.
func (Orphan) Unreached() int { return 5 }

// Recurse calls only itself: reported.
func Recurse(n int) int {
	if n == 0 {
		return 0
	}
	return Recurse(n - 1)
}
