// Fixture: known-good code that randflow must stay silent on — a
// hand-rolled deterministic generator with an explicit integer seed, the
// pattern internal/rng implements.
package fixture

type prng struct{ state uint64 }

func newPRNG(seed uint64) *prng { return &prng{state: seed} }

func (p *prng) next() uint64 {
	p.state = p.state*6364136223846793005 + 1442695040888963407
	return p.state
}

func sample(seed uint64, n int) []uint64 {
	r := newPRNG(seed)
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.next()
	}
	return out
}
