package main

// checks counts correctness checks and names the ones that failed. Each
// counts as one attempted operation; a failed one as one failure.
type checks struct {
	N      int      `json:"n"`
	Failed []string `json:"failed,omitempty"`
}

func (c *checks) add(name string, ok bool) {
	c.N++
	if !ok {
		c.Failed = append(c.Failed, name)
	}
}

func (c *checks) merge(o checks) {
	c.N += o.N
	c.Failed = append(c.Failed, o.Failed...)
}
