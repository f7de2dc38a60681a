package topology

// Domains returns the number of domains.
func (s *Steering) Domains() int { return len(s.topo.Domains) }

// DomainOf returns the domain owning a global channel index.
func (s *Steering) DomainOf(globalChan int) int {
	for d := len(s.offsets) - 1; d > 0; d-- {
		if globalChan >= s.offsets[d] {
			return d
		}
	}
	return 0
}

// Unsteer inverts Steer: (domain, local line) back to the global line.
func (s *Steering) Unsteer(d int, local uint64) uint64 {
	nd := len(s.topo.Domains)
	if nd == 1 {
		return local
	}
	col := local % s.lpr
	localRest := local / s.lpr
	if s.domain {
		return (localRest*uint64(nd)+uint64(d))*s.lpr + col
	}
	domCh := uint64(s.topo.Domains[d].Channels)
	localCh := localRest % domCh
	up := localRest / domCh
	rest := up*s.totalCh + uint64(s.offsets[d]) + localCh
	return rest*s.lpr + col
}
