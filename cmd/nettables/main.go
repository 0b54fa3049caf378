// Command nettables prints the reproduced Tables 1-4 of the paper: the
// analytic bandwidths (Table 4) and the maximum host sizes for efficient
// emulation they imply (Tables 1-3).
//
// Usage:
//
//	nettables [-table 1|2|3|4|all] [-j 2] [-k 2]
//
// j is the guest dimension for the dimensioned guest families, k the host
// dimension for the dimensioned host families.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/core"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nettables: ")
	table := flag.String("table", "all", "which table to print: 1, 2, 3, 4, or all")
	j := flag.Int("j", 2, "guest dimension for dimensioned guests")
	k := flag.Int("k", 2, "host dimension for dimensioned hosts")
	flag.Parse()

	ids := []string{*table}
	if *table == "all" {
		ids = []string{"4", "1", "2", "3"}
	}
	for i, id := range ids {
		if i > 0 {
			fmt.Println()
		}
		if err := core.WritePaperTable(os.Stdout, id, *j, *k); errors.Is(err, core.ErrUnknownTable) {
			log.Fatalf("unknown table %q (want 1, 2, 3, 4, or all)", *table)
		} else if err != nil {
			log.Fatal(err)
		}
	}
}
