// Package fixture is the root package of the reachability gate's
// fixture module.
package fixture

import "fixture/internal/inner"

// Alias exports inner.T, so T's exported methods are public API.
type Alias = inner.T

// Exported is public API.
func Exported() int { return inner.FromExported() }
