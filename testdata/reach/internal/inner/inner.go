// Package inner holds one function or method per reachability rule.
package inner

var initialized = initCallee()

func initCallee() int { return 1 }

// FromExported is reached from the root package's exported API.
func FromExported() int { return initialized }

// TestOnly is called only by a test.
func TestOnly() int { return onlyFromTestOnly() }

func onlyFromTestOnly() int { return 2 }

// AsValue is called only through a function value.
func AsValue() {}

// BenchOnly is called only by the bench module.
func BenchOnly() {}

// Generic is called through an instantiation, and writes Box's field
// through one.
func Generic[E any](e E) E { return Box[E]{v: e}.Get() }

// Box is generic; Get is called on an instantiation.
type Box[E any] struct{ v E }

func (b Box[E]) Get() E { return b.v }

// T is exported by alias from the root package.
type T struct{}

func (T) Aliased() {}

func (T) hidden() {}

// V is not exported by the root package; its methods are reached only
// through the interfaces they satisfy.
type V struct{ Base }

func (V) String() string { return "V" }

// Base gives V a promoted Shut, which only V's method set completes into
// a shutter.
type Base struct{}

func (Base) Shut() {}

type shutter interface {
	String() string
	Shut()
}

// U is not exported by the root package.
type U struct{}

func (U) Unused() {}
