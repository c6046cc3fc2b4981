package flowrank

// use references the facade surface the way the real conformance tests
// do; Unreferenced and Both are deliberately left out, and the Blank*
// symbols are only discarded.
func use() error {
	Documented()
	Undocumented()
	unexported()
	var k Kind = KindA
	if k != KindB {
		k.Method()
	}
	_ = BlankFunc
	var _ BlankType
	var _ error = BlankErr
	if _, ok := any(ErrA).(error); ok { // a blank beside a real target is a use
		return ErrA
	}
	return ErrB
}
