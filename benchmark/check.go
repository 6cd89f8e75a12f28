package main

import (
	"fmt"
	"sort"
	"strings"
)

// Reference checkers. They share no code with the engine: plain maps,
// slices and breadth-first search. A wrong answer makes the operation
// that returned it count as failed.

// adjacency lists the successors of every node of an n-node graph.
func adjacency(n int, es []edge) [][]int {
	adj := make([][]int, n)
	for _, e := range es {
		adj[e.from] = append(adj[e.from], e.to)
	}
	return adj
}

// reachable marks the nodes reachable from start in one or more steps,
// by breadth-first search. start itself is marked only when a cycle
// leads back to it.
func reachable(adj [][]int, start int) []bool {
	seen := make([]bool, len(adj))
	queue := []int{start}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return seen
}

// closure returns, for every node of an n-node graph, the set of nodes
// reachable from it in one or more steps, as one bool row per node.
func closure(n int, es []edge) [][]bool {
	adj := adjacency(n, es)
	rows := make([][]bool, n)
	for s := range rows {
		rows[s] = reachable(adj, s)
	}
	return rows
}

// countTrue counts the marked entries of bool rows.
func countTrue(rows ...[]bool) int {
	n := 0
	for _, r := range rows {
		for _, b := range r {
			if b {
				n++
			}
		}
	}
	return n
}

// sortedKeys returns the members of a string set, sorted.
func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// reachFrom returns the names reachable from start in one or more
// steps of a name-keyed adjacency map, sorted.
func reachFrom(adj map[string][]string, start string) []string {
	seen := map[string]bool{}
	queue := []string{start}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range adj[v] {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return sortedKeys(seen)
}

// twoSteps returns the names exactly two steps from start, sorted and
// distinct.
func twoSteps(adj map[string][]string, start string) []string {
	seen := map[string]bool{}
	for _, y := range adj[start] {
		for _, z := range adj[y] {
			seen[z] = true
		}
	}
	return sortedKeys(seen)
}

// sameStrings reports whether got, once sorted, equals the sorted want.
func sameStrings(got, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	got = append([]string(nil), got...)
	sort.Strings(got)
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// checkSample verifies the Example 4 sampling answer: exactly k rows per
// department, each a real member of that department, no row twice.
func checkSample(rows []emp, members map[emp]bool, depts, k int) error {
	per := map[string]int{}
	seen := map[emp]bool{}
	for _, r := range rows {
		if !members[r] {
			return fmt.Errorf("sample: %v is not an employee", r)
		}
		if seen[r] {
			return fmt.Errorf("sample: %v returned twice", r)
		}
		seen[r] = true
		per[r.dept]++
	}
	if len(per) != depts {
		return fmt.Errorf("sample: %d departments, want %d", len(per), depts)
	}
	for d, n := range per {
		if n != k {
			return fmt.Errorf("sample: department %s has %d rows, want %d", d, n, k)
		}
	}
	return nil
}

// checkChoice verifies the choice((Dept),(Name)) answer: the functional
// dependency Dept→Name holds, with one real member per department.
func checkChoice(rows []emp, members map[emp]bool, depts int) error {
	return checkSample(rows, members, depts, 1)
}

// checkColouring verifies the guess-and-check answer against the graph:
// every node got exactly one of the three colours, the engine's conflict
// relation is exactly the set of monochrome edges, and proper was
// derived exactly when there is none.
func checkColouring(n int, es []edge, colour map[int]string, conflicts map[edge]bool, proper bool) error {
	if len(colour) != n {
		return fmt.Errorf("colouring: %d nodes coloured, want %d", len(colour), n)
	}
	mono := 0
	for _, e := range es {
		if colour[e.from] == colour[e.to] {
			mono++
			if !conflicts[e] {
				return fmt.Errorf("colouring: monochrome edge %v missing from conflict", e)
			}
		}
	}
	if mono != len(conflicts) {
		return fmt.Errorf("colouring: %d conflicts reported, %d monochrome edges", len(conflicts), mono)
	}
	if proper != (mono == 0) {
		return fmt.Errorf("colouring: proper=%v with %d monochrome edges", proper, mono)
	}
	return nil
}

// ringTwoHop is the closed form of edge(k,Y), edge(Y,Z) on the ring with
// a stride: the distinct (Y, Z) pairs, sorted.
func ringTwoHop(n, stride, k int) [][2]int {
	seen := map[[2]int]bool{}
	for _, dy := range []int{1, stride} {
		for _, dz := range []int{1, stride} {
			y := (k + dy) % n
			seen[[2]int{y, (y + dz) % n}] = true
		}
	}
	out := make([][2]int, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// ringScan is the closed form of edge(X,Y), Y < limit on the same ring:
// every node below limit has in-degree two, and the two sources differ
// as long as stride is not 1.
func ringScan(limit int) int { return 2 * limit }

// edgeSet is the serve_mixed model of acknowledged writes: the set of
// edge(a, b) facts the session must hold.
type edgeSet map[[2]string]bool

// apply mirrors Database.Apply (deletes before inserts) and returns the
// effective change counts the server must report.
func (s edgeSet) apply(ins, dels [][2]string) (inserted, deleted int) {
	for _, e := range dels {
		if s[e] {
			delete(s, e)
			deleted++
		}
	}
	for _, e := range ins {
		if !s[e] {
			s[e] = true
			inserted++
		}
	}
	return inserted, deleted
}

func (s edgeSet) adjacency() map[string][]string {
	adj := map[string][]string{}
	for e := range s {
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	return adj
}

// diff describes how got differs from the model, for error messages.
func (s edgeSet) diff(got edgeSet) string {
	var missing, extra []string
	for e := range s {
		if !got[e] {
			missing = append(missing, e[0]+"→"+e[1])
		}
	}
	for e := range got {
		if !s[e] {
			extra = append(extra, e[0]+"→"+e[1])
		}
	}
	if len(missing) == 0 && len(extra) == 0 {
		return ""
	}
	sort.Strings(missing)
	sort.Strings(extra)
	const show = 5
	if len(missing) > show {
		missing = append(missing[:show], "…")
	}
	if len(extra) > show {
		extra = append(extra[:show], "…")
	}
	return fmt.Sprintf("missing [%s] extra [%s]", strings.Join(missing, " "), strings.Join(extra, " "))
}
