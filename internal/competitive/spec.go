package competitive

// Spec is the contract shared by every evaluation spec in the package:
// Normalize validates the spec and resolves its defaults in place. Each
// entry point calls its spec's Normalize exactly once, so validation and
// defaulting live in one place per spec — callers that want early errors
// (a CLI validating flags, say) can call Normalize themselves and then
// pass the normalized spec on.
type Spec interface {
	Normalize() error
}

// Compile-time conformance: every evaluation spec implements Spec.
var (
	_ Spec = (*SweepSpec)(nil)
	_ Spec = (*SearchConfig)(nil)
)
