// Package hotpathtest is the golden corpus for the hotpathalloc
// analyzer: every allocating construct it must flag, every scratch
// idiom it must accept, and the two escape hatches (error-type
// composite literals and //nestedlint:ignore).
package hotpathtest

import "fmt"

type walker struct {
	scratch []uint64
	sink    []uint64
}

type probe struct{ pa uint64 }

type notMapped struct{ addr uint64 }

func (e *notMapped) Error() string { return "not mapped" }

// walk exercises the allowed idioms: caller-owned and receiver-owned
// scratch appends, and error construction on the cold fault path.
//
//nestedlint:hotpath
func (w *walker) walk(buf []uint64, n int) ([]uint64, error) {
	if n < 0 {
		return nil, &notMapped{addr: uint64(n)}
	}
	w.scratch = w.scratch[:0]
	for i := 0; i < n; i++ {
		w.scratch = append(w.scratch, uint64(i))
		buf = append(buf, uint64(i))
	}
	return buf, nil
}

//nestedlint:hotpath
func (w *walker) bad(n int) {
	xs := make([]uint64, n) // want `make allocates`
	_ = xs
	p := new(probe) // want `new allocates`
	_ = p
	var local []uint64
	local = append(local, 1) // want `append outside caller-owned scratch`
	_ = local
	w.sink = []uint64{1, 2}  // want `slice literal allocates`
	m := map[uint64]uint64{} // want `map literal allocates`
	m[1] = 2                 // want `map write allocates`
	pp := &probe{pa: 1}      // want `&composite literal escapes`
	_ = pp
	fmt.Println(n)      // want `call to fmt.Println allocates`
	s := "a" + w.name() // want `string concatenation allocates`
	_ = s
	b := []byte("hi") // want `string/byte-slice conversion allocates`
	_ = b
	go w.name()    // want `go statement allocates`
	f := func() {} // want `closure allocates`
	f()
	var i any
	i = n // want `assignment boxes a concrete value`
	_ = i
	helper(n)
}

func (w *walker) name() string { return "w" }

// helper carries no directive: it is hot purely by propagation from
// bad, and diagnostics must say so.
func helper(n int) {
	_ = make([]int, n) // want `make allocates in hot path helper \(reached from hotpath bad\)`
}

// cold is neither annotated nor reachable from a hot function, so it
// may allocate freely.
func cold() []uint64 {
	return append([]uint64{}, 1, 2, 3)
}

//nestedlint:hotpath
func preallocated(n int) {
	//nestedlint:ignore one-time warm-up growth, measured outside the timed region
	buf := make([]int, n)
	_ = buf
}

// forEach is a hot iterator: callbacks handed to it run once per probe,
// so their bodies are hot even though the binding site may be cold.
//
//nestedlint:hotpath
func forEach(n int, f func(int)) {
	for i := 0; i < n; i++ {
		f(i)
	}
}

// bindCallbacks is cold, but the literal and the method value it passes
// to the hot forEach are invoked on the hot path and must be checked.
func bindCallbacks(w *walker, n int) {
	forEach(n, func(i int) {
		_ = make([]uint64, i) // want `make allocates in hot path func literal \(reached from hotpath forEach\)`
	})
	forEach(n, w.observe)
	forEach(n, cleanCallback)
}

// observe reaches the hot set as a method value bound to forEach.
func (w *walker) observe(i int) {
	w.sink = append(w.sink, uint64(i)) // fine: receiver-owned scratch
	_ = new(probe)                     // want `new allocates in hot path observe \(reached from hotpath forEach\)`
}

// cleanCallback is hot by binding but allocation-free: no findings.
func cleanCallback(i int) {
	_ = i * 2
}

// plan is generic: a hot caller reaches its methods through an
// instantiated *types.Func, which must resolve to the declaration.
type plan[P any] struct{ probes []P }

//nestedlint:hotpath
func usePlan(p *plan[uint64], n int) {
	p.grow(n)
	first[uint64](p)
}

func (p *plan[P]) grow(n int) {
	p.probes = make([]P, n) // want `make allocates in hot path grow \(reached from hotpath usePlan\)`
}

func first[P any](p *plan[P]) {
	_ = new(P) // want `new allocates in hot path first \(reached from hotpath usePlan\)`
}

// torn claims both directions at once.
//
//nestedlint:hotpath
//nestedlint:coldpath first-touch growth only
func torn() {} // want `torn carries both //nestedlint:hotpath and //nestedlint:coldpath`
