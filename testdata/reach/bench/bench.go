// Package bench stands in for the real bench module: all of its
// functions are roots.
package bench

import "fixture/internal/inner"

func run() { inner.BenchOnly() }
