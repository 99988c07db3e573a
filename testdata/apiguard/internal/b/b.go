// Package b uses its own Shared and calls methods only through Describer.
package b

// Shared is used by Describe below.
func Shared() int { return 4 }

// Describer is the interface a.Impl satisfies.
type Describer interface{ Describe() string }

// Describe calls d through the interface.
func Describe(d Describer) string {
	if Shared() > 0 {
		return d.Describe()
	}
	return ""
}
