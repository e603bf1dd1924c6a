// Package inputs parses and writes AMReX-style "inputs" configuration
// files, the format shown in the paper's Listing 2 (the Castro Sedov
// inputs.2d.cyl_in_cartcoords file). The grammar is line oriented:
//
//	# comment
//	namespace.key = value [value ...]   # trailing comment
//	key = value
//
// Values are whitespace-separated tokens; keys keep their namespace prefix
// ("amr.n_cell", "castro.cfl", ...). The package also defines CastroInputs,
// a typed view of the parameter subset the paper varies (Table I) plus the
// structural parameters the AMR driver needs (Listing 2).
package inputs

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// File is a parsed inputs file: an ordered multimap from dotted keys to
// token lists.
type File struct {
	values map[string][]string
	order  []string
}

// NewFile returns an empty inputs file.
func NewFile() *File {
	return &File{values: map[string][]string{}}
}

// Parse reads an inputs file from r.
func Parse(r io.Reader) (*File, error) {
	f := NewFile()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		eq := strings.IndexByte(line, '=')
		if eq < 0 {
			return nil, fmt.Errorf("inputs: line %d: missing '=': %q", lineNo, line)
		}
		key := strings.TrimSpace(line[:eq])
		if key == "" {
			return nil, fmt.Errorf("inputs: line %d: empty key", lineNo)
		}
		vals := strings.Fields(line[eq+1:])
		f.Set(key, vals...)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("inputs: scan: %w", err)
	}
	return f, nil
}

// ParseString parses an inputs file from a string.
func ParseString(s string) (*File, error) { return Parse(strings.NewReader(s)) }

// Load parses an inputs file from disk.
func Load(path string) (*File, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	defer fh.Close()
	return Parse(fh)
}

// Set replaces the values for key (last assignment wins, matching AMReX
// ParmParse semantics for repeated keys).
func (f *File) Set(key string, vals ...string) {
	if _, exists := f.values[key]; !exists {
		f.order = append(f.order, key)
	}
	f.values[key] = vals
}

// SetInt, SetFloat and friends are typed conveniences for building files.
func (f *File) SetInt(key string, vs ...int) {
	ss := make([]string, len(vs))
	for i, v := range vs {
		ss[i] = strconv.Itoa(v)
	}
	f.Set(key, ss...)
}

// SetFloat sets one or more float values.
func (f *File) SetFloat(key string, vs ...float64) {
	ss := make([]string, len(vs))
	for i, v := range vs {
		ss[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	f.Set(key, ss...)
}

// Has reports whether key is present.
func (f *File) Has(key string) bool {
	_, ok := f.values[key]
	return ok
}

// Int returns the first token of key as an int, or def if absent.
func (f *File) Int(key string, def int) (int, error) {
	v, ok := f.values[key]
	if !ok || len(v) == 0 {
		return def, nil
	}
	n, err := strconv.Atoi(v[0])
	if err != nil {
		return 0, fmt.Errorf("inputs: key %s: %w", key, err)
	}
	return n, nil
}

// Ints returns all tokens of key as ints, or def if absent.
func (f *File) Ints(key string, def []int) ([]int, error) {
	v, ok := f.values[key]
	if !ok {
		return def, nil
	}
	out := make([]int, len(v))
	for i, s := range v {
		n, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("inputs: key %s[%d]: %w", key, i, err)
		}
		out[i] = n
	}
	return out, nil
}

// Float returns the first token of key as a float64, or def if absent.
func (f *File) Float(key string, def float64) (float64, error) {
	v, ok := f.values[key]
	if !ok || len(v) == 0 {
		return def, nil
	}
	x, err := strconv.ParseFloat(v[0], 64)
	if err != nil {
		return 0, fmt.Errorf("inputs: key %s: %w", key, err)
	}
	return x, nil
}

// Floats returns all tokens of key as float64s, or def if absent.
func (f *File) Floats(key string, def []float64) ([]float64, error) {
	v, ok := f.values[key]
	if !ok {
		return def, nil
	}
	out := make([]float64, len(v))
	for i, s := range v {
		x, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("inputs: key %s[%d]: %w", key, i, err)
		}
		out[i] = x
	}
	return out, nil
}

// String returns the first token of key, or def if absent.
func (f *File) String(key, def string) string {
	v, ok := f.values[key]
	if !ok || len(v) == 0 {
		return def
	}
	return v[0]
}

// Keys returns all keys in first-assignment order.
func (f *File) Keys() []string {
	out := make([]string, len(f.order))
	copy(out, f.order)
	return out
}

// Write emits the file in Listing-2 style (key = values, one per line, in
// first-assignment order).
func (f *File) Write(w io.Writer) error {
	for _, k := range f.order {
		if _, err := fmt.Fprintf(w, "%s = %s\n", k, strings.Join(f.values[k], " ")); err != nil {
			return err
		}
	}
	return nil
}

// Encode returns the serialized file contents.
func (f *File) Encode() string {
	var sb strings.Builder
	f.Write(&sb) // strings.Builder writes cannot fail
	return sb.String()
}
