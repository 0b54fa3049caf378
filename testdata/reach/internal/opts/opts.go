// Package opts holds one struct field per field-gate rule.
package opts

import (
	"flag"
	"sync/atomic"
)

// Options is configured by other packages.
type Options struct {
	Unset     int    // nothing sets it
	Defaulted int    // only withDefaults sets it
	Keyed     int    // another package's keyed literal sets it
	Assigned  int    // another package assigns it
	Flagged   string // bound to a flag in this package
	Bench     int    // only the bench module sets it
}

func (o Options) withDefaults() Options {
	if o.Defaulted == 0 {
		o.Defaulted = 3
	}
	return o
}

// Bind binds Flagged to a command-line flag.
func (o *Options) Bind(fs *flag.FlagSet) { fs.StringVar(&o.Flagged, "flagged", "", "") }

// Run reads every field.
func Run(o Options) int {
	o = o.withDefaults()
	p := plain{Tagged: 1}
	var c counter
	c.n.Add(1)
	q := pair{1, 2}
	return o.Unset + o.Defaulted + o.Keyed + o.Assigned + len(o.Flagged) + o.Bench +
		p.unwritten + p.Tagged + int(c.n.Load()) + q.a + q.b
}

type plain struct {
	unwritten int
	Tagged    int `json:"tagged"`
}

type pair struct{ a, b int }

type counter struct{ n atomic.Int64 }
