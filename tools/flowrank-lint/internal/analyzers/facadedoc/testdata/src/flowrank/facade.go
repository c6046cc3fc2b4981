// Package flowrank is facadedoc testdata: every exported symbol needs a
// doc comment and a non-blank reference from a _test.go file in the
// directory.
package flowrank

import "errors"

// Documented is doc'd and referenced: no finding.
func Documented() {}

func Undocumented() {} // want `exported function Undocumented of the flowrank facade has no doc comment`

// Unreferenced is doc'd but never touched by a test.
func Unreferenced() {} // want `exported function Unreferenced of the flowrank facade is not referenced from any _test.go file`

// BlankFunc, BlankType and BlankErr are doc'd but only ever discarded by
// the tests (`_ = X`, `var _ T`, `var _ T = X`): not references.
func BlankFunc() {} // want `exported function BlankFunc of the flowrank facade is not referenced from any _test.go file`

// BlankType is named only in a `var _ BlankType`.
type BlankType int // want `exported type BlankType of the flowrank facade is not referenced from any _test.go file`

// BlankErr is named only in a `var _ error = BlankErr`.
var BlankErr = errors.New("blank") // want `exported var BlankErr of the flowrank facade is not referenced from any _test.go file`

func Both() {} // want `exported function Both of the flowrank facade has no doc comment` `exported function Both of the flowrank facade is not referenced from any _test.go file`

// Kind is a documented, referenced type.
type Kind int

// KindA is a documented, referenced constant.
const KindA Kind = 1

const KindB Kind = 2 // want `exported const KindB of the flowrank facade has no doc comment`

// Errors returned by the facade; the group doc covers each sentinel.
var (
	// ErrA has its own doc on top of the group's.
	ErrA = errors.New("a")
	ErrB = errors.New("b")
)

// unexported symbols are out of scope: no finding.
func unexported() {}

// methods document themselves under normal go vet conventions: no finding.
func (Kind) Method() {}
