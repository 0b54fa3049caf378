package main

import (
	"fmt"

	"fixture/internal/inner"
)

func init() { fmt.Println("init") }

func main() {
	f := inner.AsValue
	f()
	fmt.Println(inner.V{}, inner.Generic(1), inner.Box[int]{}.Get())
}
