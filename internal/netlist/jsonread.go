package netlist

import (
	"encoding/json"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// The design reader: one pass over the input bytes that fills jsonDesign
// exactly as json.NewDecoder(r).Decode(&jsonDesign{}) would, without
// reflection. The insts and nets sections — nearly all of a design's
// bytes — are parsed in place; the small sections (name, core, siteW,
// rowH, timing, combs) have their raw spans validated here and handed to
// json.Unmarshal, so their float and field handling is the standard
// library's own.
//
// The accept set is encoding/json's, to the byte: keys match fields case-
// insensitively (under Unicode simple folding), null leaves a field as it
// was (nil for slices and pointers), the last of duplicate keys wins and
// merges into what earlier ones decoded, strings decode escapes and turn
// invalid UTF-8 into U+FFFD, unknown values are skipped but still checked
// against the full grammar and the nesting limit, a non-integer in an int
// field is an error, and bytes after the top-level value are ignored.
// FuzzReadJSON holds the reader to that, with encoding/json as the oracle.

// maxJSONDepth is encoding/json's nesting limit: more nested arrays and
// objects than this is a syntax error.
const maxJSONDepth = 10000

// Field names of the parsed structs, folded the way encoding/json folds
// keys. All are ASCII, so a key selects a field iff its folded form equals
// the name.
var (
	designFields = []string{"NAME", "CORE", "SITEW", "ROWH", "TIMING", "COMBS", "INSTS", "NETS"}
	instFields   = []string{"NAME", "KIND", "CELL", "COMB", "X", "Y", "FIXED", "SIZEONLY", "GATE", "SCANPART", "ISINPUT"}
	netFields    = []string{"NAME", "CLOCK", "DRIVER", "SINKS"}
	pinRefFields = []string{"INST", "KIND", "BIT"}
)

// jsonReader is a cursor over the input. Errors unwind the recursive
// descent by panicking with a readError, which decodeDesign recovers into
// its error result.
type jsonReader struct {
	data []byte
	pos  int
}

type readError struct{ err error }

func (r *jsonReader) fail(format string, args ...any) {
	panic(readError{fmt.Errorf("offset %d: "+format, append([]any{r.pos}, args...)...)})
}

// decodeDesign parses a design document. A top-level null decodes to the
// zero design, like encoding/json's.
func decodeDesign(data []byte) (jd *jsonDesign, err error) {
	defer func() {
		if e := recover(); e != nil {
			re, ok := e.(readError)
			if !ok {
				panic(e)
			}
			jd, err = nil, re.err
		}
	}()
	r := &jsonReader{data: data}
	jd = &jsonDesign{}
	switch c := r.next(); c {
	case '{':
		r.design(jd)
	case 'n':
		r.literal("null")
	default:
		r.mismatch(c, "design")
	}
	return jd, nil
}

// next skips white space and returns the next byte without consuming it.
func (r *jsonReader) next() byte {
	for ; r.pos < len(r.data); r.pos++ {
		switch c := r.data[r.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	r.fail("unexpected end of JSON input")
	return 0
}

// mismatch rejects a value that cannot be stored in a field of the given
// type. encoding/json would finish the document before reporting it, but
// the outcome — rejection — is the same, so the reader stops here.
func (r *jsonReader) mismatch(c byte, goType string) {
	var kind string
	switch {
	case c == '{':
		kind = "object"
	case c == '[':
		kind = "array"
	case c == '"':
		kind = "string"
	case c == 't' || c == 'f':
		kind = "bool"
	case c == 'n':
		kind = "null"
	case c == '-' || '0' <= c && c <= '9':
		kind = "number"
	default:
		r.fail("invalid character %q looking for beginning of value", c)
	}
	r.fail("cannot unmarshal %s into Go value of type %s", kind, goType)
}

func (r *jsonReader) literal(lit string) {
	if len(r.data)-r.pos < len(lit) || string(r.data[r.pos:r.pos+len(lit)]) != lit {
		r.fail("invalid literal, want %s", lit)
	}
	r.pos += len(lit)
}

// str scans the string token at the cursor and returns its span, quotes
// included. plain reports that the content is ASCII without escapes, so
// the bytes between the quotes are the decoded string.
func (r *jsonReader) str() (start, end int, plain bool) {
	start, plain = r.pos, true
	data := r.data
	for i := r.pos + 1; i < len(data); {
		switch c := data[i]; {
		case c == '"':
			r.pos = i + 1
			return start, r.pos, plain
		case c == '\\':
			plain = false
			if i+1 >= len(data) {
				i = len(data)
				continue
			}
			switch data[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if len(data)-i < 6 || !isHex(data[i+2]) || !isHex(data[i+3]) || !isHex(data[i+4]) || !isHex(data[i+5]) {
					r.pos = i
					r.fail("invalid \\u escape in string literal")
				}
				i += 6
			default:
				r.pos = i
				r.fail("invalid escape in string literal")
			}
		case c < 0x20:
			r.pos = i
			r.fail("invalid character %q in string literal", c)
		case c >= utf8.RuneSelf:
			plain = false
			i++
		default:
			i++
		}
	}
	r.pos = len(data)
	r.fail("unexpected end of JSON input")
	return
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// text returns the decoded string of a token from str. Escaped or
// non-ASCII strings go through json.Unmarshal, which applies the standard
// library's escape, surrogate and invalid-UTF-8 rules.
func (r *jsonReader) text(start, end int, plain bool) string {
	if plain {
		return string(r.data[start+1 : end-1])
	}
	var s string
	if err := json.Unmarshal(r.data[start:end], &s); err != nil {
		r.fail("%v", err)
	}
	return s
}

// number scans the number token at the cursor and reports whether it is an
// integer literal (no fraction, no exponent).
func (r *jsonReader) number() (isInt bool) {
	data, i := r.data, r.pos
	if i < len(data) && data[i] == '-' {
		i++
	}
	if i < len(data) && data[i] == '0' {
		i++
	} else {
		i = r.digits(i)
	}
	isInt = true
	if i < len(data) && data[i] == '.' {
		i = r.digits(i + 1)
		isInt = false
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		i = r.digits(i)
		isInt = false
	}
	r.pos = i
	return isInt
}

// digits returns the end of the run of at least one decimal digit at i.
func (r *jsonReader) digits(i int) int {
	start := i
	for i < len(r.data) && '0' <= r.data[i] && r.data[i] <= '9' {
		i++
	}
	if i == start {
		r.pos = i
		r.fail("invalid number literal")
	}
	return i
}

// member advances to the next member of the object being read — past the
// separating ',' unless it is the first — and returns its key token and
// the cursor at its value. done reports the closing '}'.
func (r *jsonReader) member(first bool) (start, end int, plain, done bool) {
	c := r.next()
	if c == '}' {
		r.pos++
		return 0, 0, false, true
	}
	if !first {
		if c != ',' {
			r.fail("invalid character %q after object key:value pair", c)
		}
		r.pos++
		c = r.next()
	}
	if c != '"' {
		r.fail("invalid character %q looking for beginning of object key string", c)
	}
	start, end, plain = r.str()
	if r.next() != ':' {
		r.fail("invalid character %q after object key", r.data[r.pos])
	}
	r.pos++
	return start, end, plain, false
}

// element advances to the next element of the array being read, past the
// separating ',' unless it is the first. done reports the closing ']'.
func (r *jsonReader) element(first bool) (done bool) {
	c := r.next()
	if c == ']' {
		r.pos++
		return true
	}
	if !first {
		if c != ',' {
			r.fail("invalid character %q after array element", c)
		}
		r.pos++
	}
	return false
}

// field returns the entry of names the key token selects, or "" for a key
// no field takes.
func (r *jsonReader) field(start, end int, plain bool, names []string) string {
	if plain {
		key := r.data[start+1 : end-1]
		for _, n := range names {
			if len(n) == len(key) && asciiFoldEqual(key, n) {
				return n
			}
		}
		return ""
	}
	key := string(foldName([]byte(r.text(start, end, plain))))
	for _, n := range names {
		if key == n {
			return n
		}
	}
	return ""
}

// asciiFoldEqual reports whether key, folded, equals the folded name.
func asciiFoldEqual(key []byte, name string) bool {
	for i, c := range key {
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != name[i] {
			return false
		}
	}
	return true
}

// foldName is encoding/json's key folding: ASCII letters upper-cased, any
// other rune replaced by the smallest rune of its simple-fold orbit.
func foldName(in []byte) []byte {
	out := make([]byte, 0, len(in))
	for i := 0; i < len(in); {
		if c := in[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			out = append(out, c)
			i++
			continue
		}
		ru, n := utf8.DecodeRune(in[i:])
		for {
			next := unicode.SimpleFold(ru)
			if next <= ru {
				ru = next
				break
			}
			ru = next
		}
		out = utf8.AppendRune(out, ru)
		i += n
	}
	return out
}

// skip consumes one value of any kind, checking it against the full
// grammar. depth is the number of arrays and objects enclosing it.
func (r *jsonReader) skip(depth int) {
	switch c := r.next(); {
	case c == '{' || c == '[':
		if depth+1 > maxJSONDepth {
			r.fail("exceeded max depth")
		}
		r.pos++
		if c == '{' {
			for first := true; ; first = false {
				if _, _, _, done := r.member(first); done {
					return
				}
				r.skip(depth + 1)
			}
		}
		for first := true; !r.element(first); first = false {
			r.skip(depth + 1)
		}
	case c == '"':
		r.str()
	case c == '-' || '0' <= c && c <= '9':
		r.number()
	case c == 't':
		r.literal("true")
	case c == 'f':
		r.literal("false")
	case c == 'n':
		r.literal("null")
	default:
		r.fail("invalid character %q looking for beginning of value", c)
	}
}

// unmarshal hands the raw span of the next value to json.Unmarshal, which
// decodes it into v the way the streaming decoder would (merging into what
// v already holds).
func (r *jsonReader) unmarshal(depth int, v any) {
	r.next()
	start := r.pos
	r.skip(depth)
	if err := json.Unmarshal(r.data[start:r.pos], v); err != nil {
		r.fail("%v", err)
	}
}

// setString stores a string value; null leaves dst as it was.
func (r *jsonReader) setString(dst *string) {
	switch c := r.next(); c {
	case '"':
		*dst = r.text(r.str())
	case 'n':
		r.literal("null")
	default:
		r.mismatch(c, "string")
	}
}

// setBool stores a boolean value; null leaves dst as it was.
func (r *jsonReader) setBool(dst *bool) {
	switch c := r.next(); c {
	case 't':
		r.literal("true")
		*dst = true
	case 'f':
		r.literal("false")
		*dst = false
	case 'n':
		r.literal("null")
	default:
		r.mismatch(c, "bool")
	}
}

// setInt stores an integer value; null leaves dst as it was. Like
// encoding/json, a fraction, an exponent or a value outside int64 is an
// error, not a conversion.
func setInt[T int | int64](r *jsonReader, dst *T) {
	switch c := r.next(); {
	case c == '-' || '0' <= c && c <= '9':
		start := r.pos
		isInt := r.number()
		lit := r.data[start:r.pos]
		v, ok := int64(0), false
		if isInt {
			v, ok = parseInt(lit)
		}
		if !ok {
			r.fail("cannot unmarshal number %s into Go value of type int", lit)
		}
		*dst = T(v)
	case c == 'n':
		r.literal("null")
	default:
		r.mismatch(c, "int")
	}
}

// parseInt is strconv.ParseInt(lit, 10, 64) for a grammar-checked integer
// literal, without the string conversion on the common short path.
func parseInt(lit []byte) (int64, bool) {
	digits := lit
	if digits[0] == '-' {
		digits = digits[1:]
	}
	if len(digits) > 18 {
		v, err := strconv.ParseInt(string(lit), 10, 64)
		return v, err == nil
	}
	var v int64
	for _, c := range digits {
		v = v*10 + int64(c-'0')
	}
	if lit[0] == '-' {
		v = -v
	}
	return v, true
}

// elemAt makes index i of s addressable the way encoding/json grows a
// slice it decodes into: reslicing into spare capacity first (the old
// element there is decoded into, not replaced), growing only past the
// capacity. The growth factor differs — doubling, where append settles at
// 1.25× and copies a large section several times over — but no decoded
// value depends on it: growth happens only at len == cap and keeps every
// element, so each index reads either what the same document decoded
// there earlier or zero under both policies.
func elemAt[T any](s []T, i int) []T {
	switch {
	case i < len(s):
		return s
	case i < cap(s):
		return s[:i+1]
	}
	grown := make([]T, i+1, max(2*i, 1))
	copy(grown, s)
	return grown
}

// endSlice truncates s to the n decoded elements; an empty array decodes
// to a new empty, non-nil slice.
func endSlice[T any](s []T, n int) []T {
	if n == 0 {
		return []T{}
	}
	return s[:n]
}

// design reads the top-level object (the cursor is at its '{').
func (r *jsonReader) design(jd *jsonDesign) {
	r.pos++
	for first := true; ; first = false {
		start, end, plain, done := r.member(first)
		if done {
			return
		}
		switch r.field(start, end, plain, designFields) {
		case "NAME":
			r.unmarshal(1, &jd.Name)
		case "CORE":
			r.unmarshal(1, &jd.Core)
		case "SITEW":
			r.unmarshal(1, &jd.SiteW)
		case "ROWH":
			r.unmarshal(1, &jd.RowH)
		case "TIMING":
			r.unmarshal(1, &jd.Timing)
		case "COMBS":
			r.unmarshal(1, &jd.Combs)
		case "INSTS":
			jd.Insts = readArray(r, jd.Insts, (*jsonReader).inst)
		case "NETS":
			jd.Nets = readArray(r, jd.Nets, (*jsonReader).net)
		default:
			r.skip(1)
		}
	}
}

// readArray decodes an array-of-objects section into s, whose elements
// sit two levels below the top. null yields nil.
func readArray[T any](r *jsonReader, s []T, elem func(*jsonReader, *T)) []T {
	switch c := r.next(); c {
	case '[':
	case 'n':
		r.literal("null")
		return nil
	default:
		r.mismatch(c, "slice")
	}
	r.pos++
	i := 0
	for ; !r.element(i == 0); i++ {
		s = elemAt(s, i)
		elem(r, &s[i])
	}
	return endSlice(s, i)
}

// object opens a struct-typed value: it reports false for null, which
// leaves the struct as it was, and consumes the '{' otherwise.
func (r *jsonReader) object(goType string) bool {
	switch c := r.next(); c {
	case '{':
		r.pos++
		return true
	case 'n':
		r.literal("null")
	default:
		r.mismatch(c, goType)
	}
	return false
}

// inst reads one instance object (depth 3).
func (r *jsonReader) inst(ji *jsonInst) {
	if !r.object("instance") {
		return
	}
	for first := true; ; first = false {
		start, end, plain, done := r.member(first)
		if done {
			return
		}
		switch r.field(start, end, plain, instFields) {
		case "NAME":
			r.setString(&ji.Name)
		case "KIND":
			setInt(r, &ji.Kind)
		case "CELL":
			r.setString(&ji.Cell)
		case "COMB":
			r.setString(&ji.Comb)
		case "X":
			setInt(r, &ji.X)
		case "Y":
			setInt(r, &ji.Y)
		case "FIXED":
			r.setBool(&ji.Fixed)
		case "SIZEONLY":
			r.setBool(&ji.SizeOnly)
		case "GATE":
			setInt(r, &ji.Gate)
		case "SCANPART":
			setInt(r, &ji.ScanPart)
		case "ISINPUT":
			r.setBool(&ji.IsInput)
		default:
			r.skip(3)
		}
	}
}

// net reads one net object (depth 3).
func (r *jsonReader) net(jn *jsonNet) {
	if !r.object("net") {
		return
	}
	for first := true; ; first = false {
		start, end, plain, done := r.member(first)
		if done {
			return
		}
		switch r.field(start, end, plain, netFields) {
		case "NAME":
			r.setString(&jn.Name)
		case "CLOCK":
			r.setBool(&jn.IsClock)
		case "DRIVER":
			if r.next() == 'n' {
				r.literal("null")
				jn.Driver = nil
				break
			}
			if jn.Driver == nil {
				jn.Driver = new(jsonPinRef)
			}
			r.pinRef(4, jn.Driver)
		case "SINKS":
			jn.Sinks = readArray(r, jn.Sinks, func(r *jsonReader, ref *jsonPinRef) { r.pinRef(5, ref) })
		default:
			r.skip(3)
		}
	}
}

// pinRef reads one pin reference object at the given depth.
func (r *jsonReader) pinRef(depth int, ref *jsonPinRef) {
	if !r.object("pin reference") {
		return
	}
	for first := true; ; first = false {
		start, end, plain, done := r.member(first)
		if done {
			return
		}
		switch r.field(start, end, plain, pinRefFields) {
		case "INST":
			r.setString(&ref.Inst)
		case "KIND":
			setInt(r, &ref.Kind)
		case "BIT":
			setInt(r, &ref.Bit)
		default:
			r.skip(depth)
		}
	}
}
