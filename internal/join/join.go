// Package join evaluates full conjunctive queries over in-memory relation
// instances. It provides the local computation that MPC servers run on
// their received fragments (a hash-based multiway join) and an independent
// nested-loop reference implementation used to verify every distributed
// algorithm's output in tests.
//
// The MPC model gives servers unlimited computational power, but on skewed
// inputs a server's output is the product of heavy-hitter degrees, and
// materializing it is where an execution's wall clock goes. JoinLimit
// therefore sizes every step's output exactly (count, allocate once, fill)
// instead of allocating one slice per answer.
package join

import (
	"sort"

	"repro/internal/data"
	"repro/internal/query"
)

// Join returns all answers of q over the given relations (keyed by atom
// name). A missing or empty relation yields no answers. Input relations
// must be duplicate-free; then the output is duplicate-free too.
func Join(q *query.Query, rels map[string]*data.Relation) []data.Tuple {
	return JoinLimit(q, rels, 0)
}

// JoinLimit is Join with a cap on intermediate and final result sizes:
// whenever the binding set exceeds limit, it is truncated to the first
// limit bindings, so the output is an arbitrary subset of the true
// answers. limit ≤ 0 means unlimited. Lower-bound computations use this —
// a bound summed over a subset of the support is still a valid lower
// bound.
//
// Each atom step sizes its output exactly: a count pass probes every
// binding once and keeps its index bucket, then one header slice and one
// flat value arena of the counted size are allocated and filled. The
// returned tuples therefore share one backing array; each is capped
// (len == cap == q.NumVars()), so appending to one reallocates it rather
// than overwriting its neighbour.
func JoinLimit(q *query.Query, rels map[string]*data.Relation, limit int) []data.Tuple {
	k := q.NumVars()
	order := planOrder(q, rels)

	// bindings holds partial assignments to the k query variables; bound
	// tracks which variables are assigned (same for every binding at a
	// given step).
	bindings := []data.Tuple{make(data.Tuple, k)}
	bound := make([]bool, k)

	for _, j := range order {
		atom := q.Atoms[j]
		rel := rels[atom.Name]
		if rel == nil || rel.Size() == 0 {
			return nil
		}
		// Split atom variables into already-bound (join positions) and new.
		var joinPos []int // positions within the atom
		var joinVar []int // corresponding query variables
		for pos, v := range atom.Vars {
			if bound[v] {
				joinPos = append(joinPos, pos)
				joinVar = append(joinVar, v)
			}
		}
		// Build the hash index from the key columns only — the payload
		// columns are not touched until a binding actually extends.
		m := rel.Size()
		keyCols := make([][]int64, len(joinPos))
		for a, pos := range joinPos {
			keyCols[a] = rel.Column(pos)
		}
		index := make(map[data.Key][]int, m)
		key := make(data.Tuple, len(joinPos))
		for i := 0; i < m; i++ {
			for a, col := range keyCols {
				key[a] = col[i]
			}
			ks := data.KeyOf(key)
			index[ks] = append(index[ks], i)
		}
		// Count pass: probe each binding once, keeping its bucket (cut at
		// the limit, which also ends the pass).
		buckets := make([][]int, 0, len(bindings))
		n := 0
		probe := make(data.Tuple, len(joinVar))
		for _, b := range bindings {
			for a, v := range joinVar {
				probe[a] = b[v]
			}
			bucket := index[data.KeyOf(probe)]
			if limit > 0 && n+len(bucket) >= limit {
				buckets = append(buckets, bucket[:limit-n])
				n = limit
				break
			}
			buckets = append(buckets, bucket)
			n += len(bucket)
		}
		if n == 0 {
			return nil
		}
		// Fill pass: one header slice and one value arena, in the same
		// binding-major order as the count.
		next := make([]data.Tuple, n)
		arena := make([]int64, n*k)
		cols := rel.Columns()
		i := 0
		for bi, bucket := range buckets {
			b := bindings[bi]
			for _, ti := range bucket {
				nb := arena[i*k : (i+1)*k : (i+1)*k]
				copy(nb, b)
				for pos, v := range atom.Vars {
					nb[v] = cols[pos][ti]
				}
				next[i] = nb
				i++
			}
		}
		bindings = next
		for _, v := range atom.Vars {
			bound[v] = true
		}
	}
	return bindings
}

// planOrder returns a greedy atom order: start from the smallest relation,
// then repeatedly take the atom sharing the most variables with the bound
// set (ties to the smaller relation). Connected queries thus avoid
// intermediate cartesian blowups where possible.
func planOrder(q *query.Query, rels map[string]*data.Relation) []int {
	l := q.NumAtoms()
	size := func(j int) int {
		if r := rels[q.Atoms[j].Name]; r != nil {
			return r.Size()
		}
		return 0
	}
	used := make([]bool, l)
	bound := make(map[int]bool)
	var order []int
	for len(order) < l {
		best, bestShared, bestSize := -1, -1, 0
		for j := 0; j < l; j++ {
			if used[j] {
				continue
			}
			shared := 0
			for _, v := range q.Atoms[j].Vars {
				if bound[v] {
					shared++
				}
			}
			if best == -1 || shared > bestShared ||
				(shared == bestShared && size(j) < bestSize) {
				best, bestShared, bestSize = j, shared, size(j)
			}
		}
		used[best] = true
		order = append(order, best)
		for _, v := range q.Atoms[best].Vars {
			bound[v] = true
		}
	}
	return order
}

// NestedLoop is an independent reference join: plain backtracking over
// atoms with no indexing. Exponential in the worst case — use on small
// inputs (tests) only.
func NestedLoop(q *query.Query, rels map[string]*data.Relation) []data.Tuple {
	k := q.NumVars()
	assignment := make(data.Tuple, k)
	bound := make([]bool, k)
	var out []data.Tuple

	var rec func(ai int)
	rec = func(ai int) {
		if ai == q.NumAtoms() {
			out = append(out, append(data.Tuple(nil), assignment...))
			return
		}
		atom := q.Atoms[ai]
		rel := rels[atom.Name]
		if rel == nil {
			return
		}
		rel.Each(func(_ int, t data.Tuple) bool {
			var newly []int
			ok := true
			for pos, v := range atom.Vars {
				if bound[v] {
					if assignment[v] != t[pos] {
						ok = false
						break
					}
				} else {
					bound[v] = true
					assignment[v] = t[pos]
					newly = append(newly, v)
				}
			}
			if ok {
				rec(ai + 1)
			}
			for _, v := range newly {
				bound[v] = false
			}
			return true
		})
	}
	rec(0)
	return out
}

// FromDatabase adapts a Database to the map form Join expects.
func FromDatabase(db *data.Database) map[string]*data.Relation {
	return db.Relations
}

// SortTuples orders tuples lexicographically in place and returns them.
func SortTuples(ts []data.Tuple) []data.Tuple {
	sort.Slice(ts, func(a, b int) bool {
		ta, tb := ts[a], ts[b]
		for i := range ta {
			if ta[i] != tb[i] {
				return ta[i] < tb[i]
			}
		}
		return false
	})
	return ts
}

// EqualTupleSets reports whether two tuple collections are equal as
// multisets.
func EqualTupleSets(a, b []data.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	counts := make(map[data.Key]int, len(a))
	for _, t := range a {
		counts[data.KeyOf(t)]++
	}
	for _, t := range b {
		k := data.KeyOf(t)
		counts[k]--
		if counts[k] < 0 {
			return false
		}
	}
	return true
}

// Dedup removes duplicate tuples, preserving first occurrence order.
func Dedup(ts []data.Tuple) []data.Tuple {
	seen := make(map[data.Key]bool, len(ts))
	out := ts[:0]
	for _, t := range ts {
		k := data.KeyOf(t)
		if !seen[k] {
			seen[k] = true
			out = append(out, t)
		}
	}
	return out
}
