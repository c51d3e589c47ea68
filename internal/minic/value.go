package minic

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"sync"
	"unsafe"

	"repro/internal/primitives"
)

// ValueKind tags a runtime value.
type ValueKind int

// Value kinds.
const (
	KindUnit ValueKind = iota
	KindInt
	KindBool
	KindFloat
	KindString
	KindArray
	KindMutex
	KindSem
	KindThread
)

// String names the kind.
func (k ValueKind) String() string {
	switch k {
	case KindUnit:
		return "unit"
	case KindInt:
		return "int"
	case KindBool:
		return "bool"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindArray:
		return "array"
	case KindMutex:
		return "mutex"
	case KindSem:
		return "semaphore"
	case KindThread:
		return "thread"
	default:
		return fmt.Sprintf("ValueKind(%d)", int(k))
	}
}

// Value is a minic runtime value: a 24-byte tagged union with exactly one
// pointer word, so operand-stack and array-element writes pay the GC write
// barrier for one slot and an n-element array costs 24n bytes.
//
// I carries the int and bool payloads, a float's IEEE-754 bits, a string's
// or array's length, and a thread's id. p is nil for scalars; otherwise it
// is the string's bytes, the array's first element, the *sync.Mutex, the
// *primitives.Semaphore or the *Thread, selected by Kind. Read the payload
// through the accessors (F, S, Arr, Mu, Sem, Th).
type Value struct {
	Kind ValueKind
	I    int64
	p    unsafe.Pointer
}

// Constructors.

// UnitValue is the unit (no value) result.
func UnitValue() Value { return Value{Kind: KindUnit} }

// IntValue wraps an int64.
func IntValue(v int64) Value { return Value{Kind: KindInt, I: v} }

// BoolValue wraps a bool.
func BoolValue(v bool) Value { return Value{Kind: KindBool, I: boolInt(v)} }

// FloatValue wraps a float64, stored as its bit pattern so -0.0 and NaN
// payloads survive copies and constant interning exactly.
func FloatValue(v float64) Value { return Value{Kind: KindFloat, I: int64(math.Float64bits(v))} }

// StringValue wraps a string without copying its bytes.
func StringValue(v string) Value {
	return Value{Kind: KindString, I: int64(len(v)), p: unsafe.Pointer(unsafe.StringData(v))}
}

// ArrayValue wraps elems as a shared, mutable array: copies of the Value
// alias the same elements. Element access is serialized by the owning
// machine's memory lock, so Go-level memory stays safe while language-level
// races (load/compute/store interleavings) remain observable. An array's
// length never changes after creation.
func ArrayValue(elems []Value) Value {
	return Value{Kind: KindArray, I: int64(len(elems)), p: unsafe.Pointer(unsafe.SliceData(elems))}
}

func mutexValue(mu *sync.Mutex) Value { return Value{Kind: KindMutex, p: unsafe.Pointer(mu)} }

func semValue(s *primitives.Semaphore) Value { return Value{Kind: KindSem, p: unsafe.Pointer(s)} }

func threadValue(t *Thread) Value { return Value{Kind: KindThread, I: t.id, p: unsafe.Pointer(t)} }

// Accessors. Each returns its type's zero value when Kind does not match, so
// a mistyped read can never reinterpret one pointer kind as another.

// F returns a float's value.
func (v Value) F() float64 {
	if v.Kind != KindFloat {
		return 0
	}
	return math.Float64frombits(uint64(v.I))
}

// S returns a string's value.
func (v Value) S() string {
	if v.Kind != KindString {
		return ""
	}
	return unsafe.String((*byte)(v.p), int(v.I))
}

// Arr returns an array's elements. The slice aliases the array: callers
// hold the machine's memory lock while reading or writing elements.
func (v Value) Arr() []Value {
	if v.Kind != KindArray {
		return nil
	}
	return unsafe.Slice((*Value)(v.p), int(v.I))
}

// Mu returns a mutex value's lock.
func (v Value) Mu() *sync.Mutex {
	if v.Kind != KindMutex {
		return nil
	}
	return (*sync.Mutex)(v.p)
}

// Sem returns a semaphore value's semaphore.
func (v Value) Sem() *primitives.Semaphore {
	if v.Kind != KindSem {
		return nil
	}
	return (*primitives.Semaphore)(v.p)
}

// Th returns a thread handle's thread.
func (v Value) Th() *Thread {
	if v.Kind != KindThread {
		return nil
	}
	return (*Thread)(v.p)
}

// Bool reports the truthiness of a bool value.
func (v Value) Bool() bool { return v.Kind == KindBool && v.I != 0 }

// String renders the value the way print does.
func (v Value) String() string {
	switch v.Kind {
	case KindUnit:
		return "()"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case KindFloat:
		return strconv.FormatFloat(v.F(), 'g', -1, 64)
	case KindString:
		return v.S()
	case KindArray:
		s := "["
		for i, e := range v.Arr() {
			if i > 0 {
				s += " "
			}
			s += e.String()
		}
		return s + "]"
	case KindMutex:
		return "<mutex>"
	case KindSem:
		return "<semaphore>"
	case KindThread:
		return fmt.Sprintf("<thread %d>", v.I)
	default:
		return "<?>"
	}
}

// numeric returns the value as float64 for mixed arithmetic.
func (v Value) numeric() (float64, bool) {
	switch v.Kind {
	case KindInt:
		return float64(v.I), true
	case KindFloat:
		return v.F(), true
	default:
		return 0, false
	}
}

// intBinary is the interpreter's int⊕int fast path: it writes the result of
// a op b into dst and reports whether it handled the operator. Division and
// modulo by zero, and the bool-only logical operators, are left to
// applyBinary so error reporting stays in one place.
func intBinary(op int, a, b int64, dst *Value) bool {
	switch op {
	case BinAdd:
		*dst = Value{Kind: KindInt, I: a + b}
	case BinSub:
		*dst = Value{Kind: KindInt, I: a - b}
	case BinMul:
		*dst = Value{Kind: KindInt, I: a * b}
	case BinDiv:
		if b == 0 {
			return false
		}
		*dst = Value{Kind: KindInt, I: a / b}
	case BinMod:
		if b == 0 {
			return false
		}
		*dst = Value{Kind: KindInt, I: a % b}
	case BinEq:
		*dst = Value{Kind: KindBool, I: boolInt(a == b)}
	case BinNe:
		*dst = Value{Kind: KindBool, I: boolInt(a != b)}
	case BinLt:
		*dst = Value{Kind: KindBool, I: boolInt(a < b)}
	case BinLe:
		*dst = Value{Kind: KindBool, I: boolInt(a <= b)}
	case BinGt:
		*dst = Value{Kind: KindBool, I: boolInt(a > b)}
	case BinGe:
		*dst = Value{Kind: KindBool, I: boolInt(a >= b)}
	default:
		return false
	}
	return true
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// applyBinary evaluates a binary operator over two values with the
// language's coercion rules: int⊕int→int, any numeric mix→float,
// string+string→concat, comparisons on numbers and strings, && || on bools.
func applyBinary(op int, a, b Value, line int) (Value, error) {
	switch op {
	case BinAdd:
		if a.Kind == KindString && b.Kind == KindString {
			return StringValue(a.S() + b.S()), nil
		}
		fallthrough
	case BinSub, BinMul, BinDiv, BinMod:
		return arith(op, a, b, line)
	case BinEq, BinNe:
		eq, err := valueEq(a, b, line)
		if err != nil {
			return Value{}, err
		}
		if op == BinNe {
			eq = !eq
		}
		return BoolValue(eq), nil
	case BinLt, BinLe, BinGt, BinGe:
		return compare(op, a, b, line)
	case BinAnd, BinOr:
		if a.Kind != KindBool || b.Kind != KindBool {
			return Value{}, errAt(line, 0, "logical operator needs bool operands, got %s and %s", a.Kind, b.Kind)
		}
		if op == BinAnd {
			return BoolValue(a.I != 0 && b.I != 0), nil
		}
		return BoolValue(a.I != 0 || b.I != 0), nil
	default:
		return Value{}, errAt(line, 0, "internal: bad binary op %d", op)
	}
}

func arith(op int, a, b Value, line int) (Value, error) {
	if a.Kind == KindInt && b.Kind == KindInt {
		switch op {
		case BinAdd:
			return IntValue(a.I + b.I), nil
		case BinSub:
			return IntValue(a.I - b.I), nil
		case BinMul:
			return IntValue(a.I * b.I), nil
		case BinDiv:
			if b.I == 0 {
				return Value{}, errAt(line, 0, "division by zero")
			}
			return IntValue(a.I / b.I), nil
		case BinMod:
			if b.I == 0 {
				return Value{}, errAt(line, 0, "modulo by zero")
			}
			return IntValue(a.I % b.I), nil
		}
	}
	af, aok := a.numeric()
	bf, bok := b.numeric()
	if !aok || !bok {
		return Value{}, errAt(line, 0, "arithmetic needs numeric operands, got %s and %s", a.Kind, b.Kind)
	}
	switch op {
	case BinAdd:
		return FloatValue(af + bf), nil
	case BinSub:
		return FloatValue(af - bf), nil
	case BinMul:
		return FloatValue(af * bf), nil
	case BinDiv:
		if bf == 0 {
			return Value{}, errAt(line, 0, "division by zero")
		}
		return FloatValue(af / bf), nil
	case BinMod:
		return Value{}, errAt(line, 0, "modulo needs integer operands")
	}
	return Value{}, errAt(line, 0, "internal: bad arith op %d", op)
}

func valueEq(a, b Value, line int) (bool, error) {
	if a.Kind == KindString && b.Kind == KindString {
		return a.S() == b.S(), nil
	}
	if a.Kind == KindBool && b.Kind == KindBool {
		return a.I == b.I, nil
	}
	af, aok := a.numeric()
	bf, bok := b.numeric()
	if aok && bok {
		if a.Kind == KindInt && b.Kind == KindInt {
			return a.I == b.I, nil
		}
		return af == bf, nil
	}
	return false, errAt(line, 0, "cannot compare %s and %s", a.Kind, b.Kind)
}

func compare(op int, a, b Value, line int) (Value, error) {
	var lt, eq bool
	switch {
	case a.Kind == KindString && b.Kind == KindString:
		lt, eq = a.S() < b.S(), a.S() == b.S()
	default:
		af, aok := a.numeric()
		bf, bok := b.numeric()
		if !aok || !bok {
			return Value{}, errAt(line, 0, "cannot order %s and %s", a.Kind, b.Kind)
		}
		lt, eq = af < bf, af == bf
	}
	switch op {
	case BinLt:
		return BoolValue(lt), nil
	case BinLe:
		return BoolValue(lt || eq), nil
	case BinGt:
		return BoolValue(!lt && !eq), nil
	case BinGe:
		return BoolValue(!lt), nil
	}
	return Value{}, errAt(line, 0, "internal: bad compare op %d", op)
}

func applyUnary(op int, a Value, line int) (Value, error) {
	switch op {
	case UnNeg:
		switch a.Kind {
		case KindInt:
			return IntValue(-a.I), nil
		case KindFloat:
			return FloatValue(-a.F()), nil
		}
		return Value{}, errAt(line, 0, "negation needs a numeric operand, got %s", a.Kind)
	case UnNot:
		if a.Kind != KindBool {
			return Value{}, errAt(line, 0, "! needs a bool operand, got %s", a.Kind)
		}
		return BoolValue(a.I == 0), nil
	default:
		return Value{}, errAt(line, 0, "internal: bad unary op %d", op)
	}
}

// scalarFrameLen is the wire size of an int, bool or float: a kind byte
// then the little-endian payload word. Floats travel as their bit pattern,
// like the mpi package's float payloads.
const scalarFrameLen = 9

// isScalarFrameKind reports whether values of kind travel as a scalar frame.
func isScalarFrameKind(k ValueKind) bool {
	return k == KindInt || k == KindBool || k == KindFloat
}

func errUnsendable(k ValueKind) error { return fmt.Errorf("minic: cannot send a %s", k) }

func errUnsendableElem(k ValueKind) error {
	return fmt.Errorf("minic: cannot send an array containing a %s", k)
}

// encodeValue serializes a sendable scalar (int, float, bool, string) for
// the message-passing builtins.
func encodeValue(v Value) ([]byte, error) {
	switch {
	case v.Kind == KindString:
		return append([]byte{byte(KindString)}, v.S()...), nil
	case isScalarFrameKind(v.Kind):
		b := make([]byte, scalarFrameLen)
		b[0] = byte(v.Kind)
		binary.LittleEndian.PutUint64(b[1:], uint64(v.I))
		return b, nil
	default:
		return nil, errUnsendable(v.Kind)
	}
}

// maxSendElems caps decoded array sizes, mirroring the array() builtin's
// allocation limit so a corrupt frame cannot ask for an absurd allocation.
const maxSendElems = 1 << 22

// arrayFrameLen is the wire size of an n-element array: a kind byte, a
// little-endian element count, then each element's scalar frame.
func arrayFrameLen(n int) int { return 5 + scalarFrameLen*n }

// encodeArrayInto writes elems as an array frame into b, which must be
// arrayFrameLen(len(elems)) bytes. Only numeric and bool elements travel.
// For a live array the caller holds the machine's memory lock, so the frame
// is a consistent view without an intermediate copy of the elements.
func encodeArrayInto(b []byte, elems []Value) error {
	b[0] = byte(KindArray)
	binary.LittleEndian.PutUint32(b[1:], uint32(len(elems)))
	for i, e := range elems {
		if !isScalarFrameKind(e.Kind) {
			return errUnsendableElem(e.Kind)
		}
		f := b[5+scalarFrameLen*i:]
		f[0] = byte(e.Kind)
		binary.LittleEndian.PutUint64(f[1:], uint64(e.I))
	}
	return nil
}

func decodeArray(b []byte) (Value, error) {
	if len(b) < 5 {
		return Value{}, fmt.Errorf("minic: truncated array message")
	}
	n := int(binary.LittleEndian.Uint32(b[1:]))
	if n > maxSendElems || len(b) != arrayFrameLen(n) {
		return Value{}, fmt.Errorf("minic: bad array message: %d elements, %d bytes", n, len(b))
	}
	elems := make([]Value, n)
	for i := range elems {
		f := b[5+scalarFrameLen*i:]
		kind := ValueKind(f[0])
		if !isScalarFrameKind(kind) {
			return Value{}, fmt.Errorf("minic: bad array element kind %s", kind)
		}
		elems[i] = Value{Kind: kind, I: int64(binary.LittleEndian.Uint64(f[1:]))}
	}
	return ArrayValue(elems), nil
}

func decodeValue(b []byte) (Value, error) {
	if len(b) == 0 {
		return Value{}, fmt.Errorf("minic: empty message")
	}
	kind := ValueKind(b[0])
	switch {
	case isScalarFrameKind(kind):
		if len(b) != scalarFrameLen {
			return Value{}, fmt.Errorf("minic: bad %s message length %d", kind, len(b))
		}
		return Value{Kind: kind, I: int64(binary.LittleEndian.Uint64(b[1:]))}, nil
	case kind == KindString:
		return StringValue(string(b[1:])), nil
	case kind == KindArray:
		return decodeArray(b)
	default:
		return Value{}, fmt.Errorf("minic: undecodable message kind %d", b[0])
	}
}
