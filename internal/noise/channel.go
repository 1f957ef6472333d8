package noise

import "noisypull/internal/rng"

// Channel applies a noise matrix to displayed messages. It precomputes an
// alias table per alphabet symbol, so single observations cost O(1).
//
// Channel is immutable after construction and safe for concurrent use as
// long as each caller supplies its own rng.Stream.
type Channel struct {
	n     *Matrix
	alias []*rng.Alias
}

// NewChannel builds a channel for noise matrix n.
func NewChannel(n *Matrix) (*Channel, error) {
	c := &Channel{
		n:     n,
		alias: make([]*rng.Alias, n.Alphabet()),
	}
	for sigma := 0; sigma < n.Alphabet(); sigma++ {
		a, err := rng.NewAlias(n.Row(sigma))
		if err != nil {
			return nil, err
		}
		c.alias[sigma] = a
	}
	return c, nil
}

// Matrix returns the channel's noise matrix.
func (c *Channel) Matrix() *Matrix { return c.n }

// Apply returns a noisy observation of the displayed symbol sigma: symbol
// sigma' with probability N[sigma][sigma'].
func (c *Channel) Apply(r *rng.Stream, sigma int) int {
	return c.alias[sigma].Sample(r)
}
