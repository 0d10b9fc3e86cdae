// Package kvspec is the one grammar of the repository's spec strings —
// workload families, the adaptive controller, network and disk faults:
//
//	[name:]key=value[,key=value...]
//
// Name, keys and values are trimmed; name and keys fold to lower case. An
// empty name before a colon, an empty term ("a=1,"), a term without '=',
// an empty key and a repeated key are errors; a blank list is empty. What
// the keys mean is the caller's: it asks for every key it knows through a
// getter, then calls Err. Every message starts with the caller's package
// name and quotes the whole spec.
package kvspec

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Spec is one parsed spec string.
type Spec struct {
	Name     string // trimmed and lower-cased; "" when the spec has none
	pkg, raw string
	vals     map[string]string
	asked    map[string]bool
	err      error
}

// Parse reads a spec whose language has names: "name", "name:list", or —
// when the string has no colon but has an '=' — a bare list.
func Parse(pkg, spec string) (*Spec, error) {
	name, list, colon := strings.Cut(spec, ":") // no colon: all of it is the name
	switch {
	case colon && strings.TrimSpace(name) == "":
		return nil, fmt.Errorf("%s: empty name before ':' in spec %q", pkg, spec)
	case !colon && strings.Contains(spec, "="):
		name, list = "", spec
	}
	return parse(pkg, spec, name, list)
}

// ParseList reads a spec whose language has no names: the list alone.
func ParseList(pkg, spec string) (*Spec, error) { return parse(pkg, spec, "", spec) }

func parse(pkg, spec, name, list string) (*Spec, error) {
	s := &Spec{Name: strings.ToLower(strings.TrimSpace(name)), pkg: pkg, raw: spec,
		vals: map[string]string{}, asked: map[string]bool{}}
	if strings.TrimSpace(list) == "" {
		return s, nil
	}
	for _, term := range strings.Split(list, ",") {
		key, val, ok := strings.Cut(term, "=")
		key = strings.ToLower(strings.TrimSpace(key))
		if !ok || key == "" {
			return nil, fmt.Errorf("%s: malformed parameter %q in spec %q (want key=value)", pkg, term, spec)
		}
		if _, dup := s.vals[key]; dup {
			return nil, fmt.Errorf("%s: duplicate parameter %q in spec %q", pkg, key, spec)
		}
		s.vals[key] = strings.TrimSpace(val)
	}
	return s, nil
}

// Lookup returns the raw value of key and marks the key as known.
func (s *Spec) Lookup(key string) (string, bool) {
	s.asked[key] = true
	raw, ok := s.vals[key]
	return raw, ok
}

// Bad records that key's value is malformed or outside its domain; want
// says what was expected. Only the first such report is kept.
func (s *Spec) Bad(key, want string) {
	if s.err == nil {
		s.err = fmt.Errorf("%s: bad %s=%q in spec %q (want %s)", s.pkg, key, s.vals[key], s.raw, want)
	}
}

func get[T any](s *Spec, key string, def T, want string, conv func(string) (T, error)) T {
	raw, ok := s.Lookup(key)
	if !ok {
		return def
	}
	v, err := conv(raw)
	if err != nil {
		s.Bad(key, want)
		return def
	}
	return v
}

// Int returns key's value as an int, or def when the key is absent.
func (s *Spec) Int(key string, def int) int { return get(s, key, def, "an integer", strconv.Atoi) }

// Float returns key's value as a float64, or def when the key is absent.
func (s *Spec) Float(key string, def float64) float64 {
	return get(s, key, def, "a number", func(raw string) (float64, error) { return strconv.ParseFloat(raw, 64) })
}

// Uint64 returns key's value as a decimal uint64, or def when absent.
func (s *Spec) Uint64(key string, def uint64) uint64 {
	return get(s, key, def, "an unsigned integer", func(raw string) (uint64, error) { return strconv.ParseUint(raw, 10, 64) })
}

// Duration returns key's value as a Go duration, or def when absent.
func (s *Spec) Duration(key string, def time.Duration) time.Duration {
	return get(s, key, def, "a duration such as 2ms", time.ParseDuration)
}

// Err reports the first malformed value, or else the alphabetically first
// key no getter asked for, or nil. Call it after the last getter.
func (s *Spec) Err() error {
	if s.err != nil {
		return s.err
	}
	first, found := "", false
	for key := range s.vals {
		if !s.asked[key] && (!found || key < first) {
			first, found = key, true
		}
	}
	if found {
		return fmt.Errorf("%s: unknown parameter %q in spec %q", s.pkg, first, s.raw)
	}
	return nil
}
