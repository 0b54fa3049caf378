package topology

import (
	"fmt"
	"math"
	"math/rand"
)

// Build constructs an instance of the given family whose processor count is
// as close as possible to approxN, rounding structural parameters (side
// lengths, orders) to valid values. dim is required for dimensioned
// families and ignored otherwise. rng is required for the randomized
// families (Expander, Multibutterfly) and ignored otherwise.
//
// Build is the uniform entry point the size-sweep experiments use; callers
// that need exact parameters use the per-family constructors.
func Build(f Family, dim, approxN int, rng *rand.Rand) *Machine {
	if approxN < 4 {
		approxN = 4
	}
	switch f {
	case LinearArrayFamily:
		return LinearArray(approxN)
	case RingFamily:
		return Ring(maxInt(3, approxN))
	case GlobalBusFamily:
		return GlobalBus(approxN)
	case TreeFamily:
		return Tree(nearestLevels(approxN))
	case XTreeFamily:
		return XTree(nearestLevels(approxN))
	case WeakPPNFamily:
		return WeakPPN(nearestPow2(approxN, 2))
	case MeshFamily:
		return Mesh(needDim(f, dim), nearestSide(approxN, dim, 2))
	case TorusFamily:
		return Torus(needDim(f, dim), nearestSide(approxN, dim, 3))
	case XGridFamily:
		return XGrid(needDim(f, dim), nearestSide(approxN, dim, 2))
	case MeshOfTreesFamily:
		return MeshOfTrees(needDim(f, dim), bestPow2Side(approxN, func(side int) int {
			return pow(side, dim) + dim*(pow(side, dim)/side)*(side-1)
		}))
	case MultigridFamily:
		return Multigrid(needDim(f, dim), bestPow2Side(approxN, func(side int) int {
			return sumLevelSizes(dim, side)
		}))
	case PyramidFamily:
		return Pyramid(needDim(f, dim), bestPow2Side(approxN, func(side int) int {
			return sumLevelSizes(dim, side)
		}))
	case ButterflyFamily:
		return Butterfly(bestOrder(approxN, func(d int) int { return (d + 1) << d }, 1))
	case WrappedButterflyFamily:
		return WrappedButterfly(bestOrder(approxN, func(d int) int { return d << d }, 2))
	case CubeConnectedCyclesFamily:
		return CubeConnectedCycles(bestOrder(approxN, func(d int) int { return d << d }, 3))
	case ShuffleExchangeFamily:
		return ShuffleExchange(bestOrder(approxN, func(d int) int { return 1 << d }, 2))
	case DeBruijnFamily:
		return DeBruijn(bestOrder(approxN, func(d int) int { return 1 << d }, 2))
	case WeakHypercubeFamily:
		return WeakHypercube(bestOrder(approxN, func(d int) int { return 1 << d }, 1))
	case MultibutterflyFamily:
		return Multibutterfly(bestOrder(approxN, func(d int) int { return (d + 1) << d }, 1), needRNG(f, rng))
	case ExpanderFamily:
		return Expander(approxN, needRNG(f, rng))
	default:
		panic(fmt.Sprintf("topology: Build does not know family %v", f))
	}
}

func needDim(f Family, dim int) int {
	if dim < 1 {
		panic(fmt.Sprintf("topology: family %v requires a dimension >= 1", f))
	}
	return dim
}

func needRNG(f Family, rng *rand.Rand) *rand.Rand {
	if rng == nil {
		panic(fmt.Sprintf("topology: family %v requires an rng", f))
	}
	return rng
}

// RandomizedFamily reports whether Build consumes rng draws for f — the
// families whose construction is itself randomized. For every other family
// Build is a pure function of (family, dim, size), which is what lets
// machine caches hand the same instance to callers that would otherwise
// build their own on differently-positioned rng streams.
func RandomizedFamily(f Family) bool {
	return f == MultibutterflyFamily || f == ExpanderFamily
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// nearestLevels picks the tree level count whose 2^L - 1 size is closest
// to n.
func nearestLevels(n int) int {
	best, bestDiff := 1, math.MaxInt
	for l := 1; l <= 26; l++ {
		size := (1 << l) - 1
		d := absDiff(size, n)
		if d < bestDiff {
			best, bestDiff = l, d
		}
		if size > 2*n {
			break
		}
	}
	return best
}

// nearestPow2 picks the power of two >= min closest to n.
func nearestPow2(n, min int) int {
	best, bestDiff := min, math.MaxInt
	for p := min; p > 0 && p <= 1<<28; p <<= 1 {
		d := absDiff(p, n)
		if d < bestDiff {
			best, bestDiff = p, d
		}
		if p > 2*n {
			break
		}
	}
	return best
}

// nearestSide picks the mesh side whose side^dim is closest to n.
func nearestSide(n, dim, min int) int {
	target := math.Pow(float64(n), 1/float64(dim))
	best, bestDiff := min, math.MaxInt
	for s := min; s <= int(target)+2; s++ {
		d := absDiff(pow(s, dim), n)
		if d < bestDiff {
			best, bestDiff = s, d
		}
	}
	return best
}

// bestPow2Side picks the power-of-two side whose size(side) is closest to n.
func bestPow2Side(n int, size func(side int) int) int {
	best, bestDiff := 2, math.MaxInt
	for s := 2; s <= 1<<14; s <<= 1 {
		sz := size(s)
		d := absDiff(sz, n)
		if d < bestDiff {
			best, bestDiff = s, d
		}
		if sz > 4*n {
			break
		}
	}
	return best
}

// bestOrder picks the order whose size(order) is closest to n.
func bestOrder(n int, size func(order int) int, min int) int {
	best, bestDiff := min, math.MaxInt
	for d := min; d <= 26; d++ {
		sz := size(d)
		diff := absDiff(sz, n)
		if diff < bestDiff {
			best, bestDiff = d, diff
		}
		if sz > 4*n {
			break
		}
	}
	return best
}

func sumLevelSizes(dim, side int) int {
	total := 0
	for _, s := range levelSizes(dim, side) {
		total += s
	}
	return total
}

func absDiff(a, b int) int {
	if a > b {
		return a - b
	}
	return b - a
}
