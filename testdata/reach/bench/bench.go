// Package bench stands in for the real bench module: all of its
// functions are roots.
package bench

import (
	"fixture/internal/inner"
	"fixture/internal/opts"
)

func run() {
	inner.BenchOnly()
	opts.Run(opts.Options{Bench: 1})
}
