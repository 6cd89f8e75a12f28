package analysis

// sccs computes the strongly connected components of the dependency graph
// using Tarjan's algorithm (iterative form, safe for deep programs).
// Components are returned in reverse topological order of the
// condensation: since edges run from body to head predicates, every
// component comes after the components that depend on it.
func sccs(nodes []string, edges []depEdge) [][]string {
	adj := map[string][]string{}
	for _, e := range edges {
		adj[e.From] = append(adj[e.From], e.To)
	}

	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var comps [][]string
	counter := 0

	type frame struct {
		node string
		next int
	}
	for _, start := range nodes {
		if _, seen := index[start]; seen {
			continue
		}
		var call []frame
		call = append(call, frame{node: start})
		index[start] = counter
		low[start] = counter
		counter++
		stack = append(stack, start)
		onStack[start] = true

		for len(call) > 0 {
			f := &call[len(call)-1]
			succs := adj[f.node]
			if f.next < len(succs) {
				w := succs[f.next]
				f.next++
				if _, seen := index[w]; !seen {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{node: w})
				} else if onStack[w] && index[w] < low[f.node] {
					low[f.node] = index[w]
				}
				continue
			}
			// Post-order: pop and propagate lowlink.
			v := f.node
			call = call[:len(call)-1]
			if len(call) > 0 {
				parent := call[len(call)-1].node
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []string
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				comps = append(comps, comp)
			}
		}
	}
	return comps
}
