// Package claims checks the paper's claims as plain Go tests. The
// source paper has no empirical tables: its evaluation is Examples 1–8
// and Theorems 1–6. Each of the experiments E1–E10 of EXPERIMENTS.md is
// one test here, named after its claim, that fails when the claim does
// not hold and asserts the exact deterministic counts recorded there:
//
//	go test ./claims -v              # every claim, with measured counts
//	go test ./claims -run '^TestE4'  # one experiment
//
// Nothing here measures time; wall clock is measured by benchmark/.
// The comparison semantics the claims are checked against (DATALOG∨,
// stable models, the inflationary languages, Turing machines) live in
// claims/internal, out of reach of the product.
package claims
