package main

import (
	"flag"
	"fmt"

	"fixture/internal/inner"
	"fixture/internal/opts"
)

func init() { fmt.Println("init") }

func main() {
	f := inner.AsValue
	f()
	fmt.Println(inner.V{}, inner.Generic(1), inner.Box[int]{}.Get())
	o := opts.Options{Keyed: 1}
	o.Assigned = 2
	o.Bind(flag.CommandLine)
	fmt.Println(opts.Run(o))
}
