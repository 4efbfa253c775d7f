package hybrid

import "rococotm/internal/tm"

// Routing-state introspection for the black-box tests.

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

// Attempt exposes a fast attempt's running word, for rococotm.TM.Poll.
func Attempt(t tm.Txn) uint64 { return t.(*fastTxn).attempt }
