package cost

import "fmt"

// Region classifies one point of the (cd, cc) plane, as in the paper's
// figures 1 and 2.
type Region int

const (
	// RegionCannotBeTrue marks cc > cd: a data message (which carries the
	// object in addition to the control fields) cannot cost less than a
	// control message.
	RegionCannotBeTrue Region = iota
	// RegionSASuperior marks points where static allocation has the lower
	// worst-case cost.
	RegionSASuperior
	// RegionDASuperior marks points where dynamic allocation has the
	// lower worst-case cost.
	RegionDASuperior
	// RegionUnknown marks points where the paper's bounds do not separate
	// the two algorithms (the gap between DA's upper and lower bound).
	RegionUnknown
)

// String implements fmt.Stringer.
func (r Region) String() string {
	switch r {
	case RegionCannotBeTrue:
		return "cannot-be-true"
	case RegionSASuperior:
		return "SA"
	case RegionDASuperior:
		return "DA"
	case RegionUnknown:
		return "unknown"
	default:
		return fmt.Sprintf("Region(%d)", int(r))
	}
}

// Rune is the single-character rendering used in the ASCII figures.
func (r Region) Rune() rune {
	switch r {
	case RegionCannotBeTrue:
		return 'x'
	case RegionSASuperior:
		return 'S'
	case RegionDASuperior:
		return 'D'
	default:
		return '?'
	}
}

// Region classifies the model from the paper's bounds; cc > cd cannot be
// true in either figure.
//
// Mobile model (figure 2): SA is not competitive at all (Proposition 3)
// while DA is (Theorem 4), so DA is superior on the whole admissible
// half-plane — except cd = 0, where all communication is free and every
// algorithm costs zero.
//
// Stationary model (figure 1, drawn for cio = 1, so prices are taken per
// I/O):
//
//   - cd > 1 (the data message costs more than one I/O): SA's tight lower
//     bound 1+cc+cd exceeds DA's upper bound 2+cc, so DA is superior;
//   - cc + cd < 0.5: SA's upper bound 1+cc+cd is below DA's lower bound
//     1.5, so SA is superior;
//   - otherwise the bounds leave the point unknown.
func (m Model) Region() Region {
	if m.IsMobile() {
		switch {
		case m.CC > m.CD:
			return RegionCannotBeTrue
		case m.CD == 0:
			return RegionUnknown
		default:
			return RegionDASuperior
		}
	}
	cc, cd := m.CC/m.CIO, m.CD/m.CIO
	switch {
	case cc > cd:
		return RegionCannotBeTrue
	case cd > 1:
		return RegionDASuperior
	case cc+cd < 0.5:
		return RegionSASuperior
	default:
		return RegionUnknown
	}
}
