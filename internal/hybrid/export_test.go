package hybrid

// Routing-state introspection and fast-path limits for the black-box tests.

const (
	SiteFastState  = siteFast
	SiteSlowState  = siteSlow
	SiteProbeState = siteProbe
)

// SiteState exposes a site's routing state and fast-abort EWMA.
func SiteState(h *TM, id uint64) (state uint32, ewma uint64) {
	st := h.site(id)
	return st.state.Load(), st.ewma.Load()
}

// Limit sets a fresh runtime's fast-path limits before its first attempt:
// the write capacity, the consecutive conflict aborts that demote a
// thread, and a demoted site's base probe interval. Zero keeps a limit.
func Limit(h *TM, maxFastWrites, consecAborts, probeAfter int) {
	if maxFastWrites != 0 {
		h.maxFastWrites = maxFastWrites
	}
	if consecAborts != 0 {
		h.consecAborts = consecAborts
	}
	if probeAfter != 0 {
		h.probeAfter = uint64(probeAfter)
		h.defSite.probeWait.Store(h.probeAfter)
	}
}
