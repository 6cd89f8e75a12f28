package ast

import "fmt"

// FreshAnonCounter rewrites anonymous variables "_" into distinct fresh
// variables "_Gn" so downstream analyses can treat every variable
// occurrence uniformly. It returns the rewritten clause.
func FreshAnonCounter(c *Clause, counter *int) *Clause {
	fresh := func(t Term) Term {
		if v, ok := t.(Var); ok && v.Anonymous() {
			*counter++
			return Var{Name: fmt.Sprintf("_G%d", *counter)}
		}
		return t
	}
	n := c.Clone()
	for i, t := range n.Head.Args {
		n.Head.Args[i] = fresh(t)
	}
	for _, l := range n.Body {
		if l.Atom != nil {
			for i, t := range l.Atom.Args {
				l.Atom.Args[i] = fresh(t)
			}
		}
		if l.Choice != nil {
			for i, t := range l.Choice.Domain {
				l.Choice.Domain[i] = fresh(t)
			}
			for i, t := range l.Choice.Range {
				l.Choice.Range[i] = fresh(t)
			}
		}
	}
	return n
}
