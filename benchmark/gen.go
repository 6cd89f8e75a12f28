package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// Input generators. Every input of the benchmark comes from here and
// from the run's seed alone. Each workload draws from its own stream
// (subRand), so changing one workload's generator never shifts another
// workload's inputs.
//
// The generators draw the *structure* of an input — which grid edges are
// rewired, which extra edges a graph has, the popularity rank of every
// request — from structRand, a stream that does not depend on the seed,
// and let the seed choose node labels, names, strides, keys and the
// order in which facts are inserted. Two seeds therefore give different
// inputs that are isomorphic: the engine does the same joins on
// differently named and differently hashed data. That is what lets
// medians from different seeds be compared.

// subRand derives a workload- and purpose-specific stream from the seed.
func subRand(seed int64, purpose string) *rand.Rand {
	h := uint64(seed)*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3
	for i := 0; i < len(purpose); i++ {
		h = (h ^ uint64(purpose[i])) * 0x100000001b3
	}
	return rand.New(rand.NewSource(int64(h >> 1)))
}

// structRand is the seed-independent stream a workload's structure is
// drawn from; see the note above.
func structRand(purpose string) *rand.Rand { return subRand(1991, purpose) }

// relabel renames the nodes of es by perm and shuffles the edge order.
func relabel(rng *rand.Rand, es []edge, perm []int) []edge {
	out := make([]edge, len(es))
	for i, e := range es {
		out[i] = edge{perm[e.from], perm[e.to]}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// edge is one directed edge between integer node ids.
type edge struct{ from, to int }

// gridEdges builds an n×n grid with an edge in both directions between
// horizontal and vertical neighbours, then rewires 5 % of the directed
// edges to a random target. The symmetric base keeps the graph strongly
// connected whatever gets rewired, so the closure is the full n²×n²
// relation.
func gridEdges(rng *rand.Rand, n int) []edge {
	var es []edge
	add := func(a, b int) {
		if rng.Float64() < 0.05 {
			b = rng.Intn(n * n)
		}
		es = append(es, edge{a, b})
	}
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			v := r*n + c
			if c+1 < n {
				add(v, v+1)
				add(v+1, v)
			}
			if r+1 < n {
				add(v, v+n)
				add(v+n, v)
			}
		}
	}
	return es
}

// emp is one employee row of the sampling/choice input.
type emp struct{ name, dept string }

// empRows builds depts departments of perDept employees each. Names
// carry a seeded tag so that the oracle's permutation, which hashes the
// tuples it orders, differs between seeds.
func empRows(rng *rand.Rand, depts, perDept int) []emp {
	tag := rng.Intn(1 << 20)
	rows := make([]emp, 0, depts*perDept)
	for d := 0; d < depts; d++ {
		for e := 0; e < perDept; e++ {
			rows = append(rows, emp{fmt.Sprintf("e%x_%d_%d", tag, d, e), fmt.Sprintf("d%x_%d", tag, d)})
		}
	}
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	return rows
}

// colourGraph plants a 3-colouring on n nodes and draws m edges between
// nodes of different planted colours, so the graph is 3-colourable by
// construction.
func colourGraph(rng *rand.Rand, n, m int) []edge {
	planted := make([]int, n)
	for i := range planted {
		planted[i] = rng.Intn(3)
	}
	seen := map[edge]bool{}
	var es []edge
	for len(es) < m {
		a, b := rng.Intn(n), rng.Intn(n)
		if planted[a] == planted[b] || seen[edge{a, b}] {
			continue
		}
		seen[edge{a, b}] = true
		es = append(es, edge{a, b})
	}
	return es
}

// reachGraph is the cli_batch input: a ring over the first core nodes
// (so everything in the core is reachable from node 0) plus extra edges
// from anywhere into the core. Nodes outside the core have no incoming
// edge and stay unreachable, which gives the reference BFS an answer
// that is not "everything".
func reachGraph(rng *rand.Rand, nodes, core, extra int) []edge {
	es := make([]edge, 0, core+extra)
	for i := 0; i < core; i++ {
		es = append(es, edge{i, (i + 1) % core})
	}
	for i := 0; i < extra; i++ {
		es = append(es, edge{rng.Intn(nodes), rng.Intn(core)})
	}
	return es
}

// factsText renders edges as ground facts in program syntax, one per
// line, with node ids rendered by name.
func factsText(pred string, es []edge, name func(int) string) string {
	var b strings.Builder
	for _, e := range es {
		b.WriteString(pred)
		b.WriteByte('(')
		b.WriteString(name(e.from))
		b.WriteString(", ")
		b.WriteString(name(e.to))
		b.WriteString(").\n")
	}
	return b.String()
}

// forest is the serve_* session: chains of nodes, each node with private
// leaves. Chain c's node j is named c<label>n<j>, its leaves
// c<label>n<j>l<k>; the seed permutes the chain labels, so two seeds
// query isomorphic forests under different names.
type forest struct {
	chains, nodes, leaves int
	label                 []int // chain index → label
}

func newForest(rng *rand.Rand, chains, nodes, leaves int) *forest {
	return &forest{chains: chains, nodes: nodes, leaves: leaves, label: rng.Perm(chains)}
}

func (f *forest) node(c, j int) string    { return fmt.Sprintf("c%dn%d", f.label[c], j) }
func (f *forest) leaf(c, j, k int) string { return fmt.Sprintf("c%dn%dl%d", f.label[c], j, k) }

// edgeFact renders one edge fact.
func edgeFact(a, b string) string { return "edge(" + a + ", " + b + ")." }

// facts renders the whole forest as fact text.
func (f *forest) facts() string {
	var b strings.Builder
	for c := 0; c < f.chains; c++ {
		for j := 0; j < f.nodes; j++ {
			if j+1 < f.nodes {
				b.WriteString(edgeFact(f.node(c, j), f.node(c, j+1)))
				b.WriteByte('\n')
			}
			for k := 0; k < f.leaves; k++ {
				b.WriteString(edgeFact(f.node(c, j), f.leaf(c, j, k)))
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

// edges returns the forest as a name-keyed adjacency map, the form the
// reference checkers walk.
func (f *forest) edges() map[string][]string {
	adj := map[string][]string{}
	for c := 0; c < f.chains; c++ {
		for j := 0; j < f.nodes; j++ {
			from := f.node(c, j)
			if j+1 < f.nodes {
				adj[from] = append(adj[from], f.node(c, j+1))
			}
			for k := 0; k < f.leaves; k++ {
				adj[from] = append(adj[from], f.leaf(c, j, k))
			}
		}
	}
	return adj
}

// goalKind is the shape of a point query against the forest.
type goalKind int

const (
	goalReach  goalKind = iota // tc(a, Y): everything below a
	goalGround                 // tc(a, b): a ground reachability test
	goalHop2                   // hop2(a, Z): non-recursive two-step
)

// goal is one point query: its text and the nodes it names.
type goal struct {
	kind goalKind
	text string
	from string
	to   string // goalGround only
}

// forestGoals builds n distinct goals over the chains [lo, hi). Rank r
// of the popularity order (rank 0 is the most requested) always has the
// same kind and the same depth in its chain — half reach, a quarter
// ground, a quarter hop2, depths spread over the chain — and rng, the
// seed's stream, chooses which chain it lands on. Every seed therefore
// has the same cost at every rank, and a different set of names.
func forestGoals(rng *rand.Rand, f *forest, lo, hi, n int) []goal {
	if n > (hi-lo)*(f.nodes-2) {
		panic("forestGoals: more goals than (chain, depth) pairs")
	}
	used := map[[2]int]bool{}
	goals := make([]goal, 0, n)
	for r := 0; r < n; r++ {
		depth := (r*37 + 11) % (f.nodes - 2)
		c := lo + rng.Intn(hi-lo)
		for used[[2]int{c, depth}] {
			c = lo + (c-lo+1)%(hi-lo)
		}
		used[[2]int{c, depth}] = true
		from := f.node(c, depth)
		switch r % 4 {
		case 0, 1:
			goals = append(goals, goal{kind: goalReach, text: "tc(" + from + ", Y)", from: from})
		case 2:
			// Every other ground goal is a miss: the target sits in a
			// neighbouring chain and is unreachable.
			tc := c
			if r%8 == 6 {
				tc = lo + (c-lo+1)%(hi-lo)
			}
			to := f.node(tc, f.nodes-1)
			goals = append(goals, goal{kind: goalGround, text: "tc(" + from + ", " + to + ")", from: from, to: to})
		default:
			goals = append(goals, goal{kind: goalHop2, text: "hop2(" + from + ", Z)", from: from})
		}
	}
	return goals
}

// zipfDraws draws n indexes in [0, max) from Zipf(s): index 0 is the
// most frequent.
func zipfDraws(rng *rand.Rand, s float64, max, n int) []int {
	z := rand.NewZipf(rng, s, 1, uint64(max-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// ringFacts writes the disk_cold EDB: n nodes, each with an edge to its
// successor and one to the node stride further on, 2n edges in all.
func ringFacts(b *strings.Builder, n, stride int) {
	for i := 0; i < n; i++ {
		fmt.Fprintf(b, "edge(%d, %d).\nedge(%d, %d).\n", i, (i+1)%n, i, (i+stride)%n)
	}
}
