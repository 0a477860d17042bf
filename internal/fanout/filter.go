package fanout

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/wire"
)

// Validation errors. Callers branch on these with errors.Is; the
// wrapped messages carry the offending input.
var (
	// ErrEmptyName rejects "" and names/filters with empty segments
	// ("a//b", "/a", "a/") — they would alias distinct trie paths.
	ErrEmptyName = errors.New("empty name or segment")
	// ErrWildcardInName rejects stream names containing '+' or '#':
	// wildcards belong to filters only, so publish-side matching stays
	// unambiguous.
	ErrWildcardInName = errors.New("stream name contains a wildcard character")
	// ErrBadWildcard rejects malformed filter wildcards: '+'/'#' mixed
	// into a longer segment, or '#' before the final segment.
	ErrBadWildcard = errors.New("malformed wildcard")
	// ErrNameTooLong rejects names and filters over wire.MaxNameLen
	// bytes: every codec carries them behind a bounded length prefix, so
	// the bound is enforced here, where they enter, not at encode time.
	ErrNameTooLong = errors.New("name too long")
)

// ValidateName checks a stream name (a publish-side topic): non-empty,
// at most wire.MaxNameLen bytes, no empty segments, no wildcard
// characters anywhere. The registry enforces this at stream registration
// so every tracked stream is addressable by filters and encodable by
// every codec.
func ValidateName(name string) error {
	if name == "" {
		return fmt.Errorf("%w: %q", ErrEmptyName, name)
	}
	if len(name) > wire.MaxNameLen {
		return fmt.Errorf("%w: %d bytes, limit %d", ErrNameTooLong, len(name), wire.MaxNameLen)
	}
	rest := name
	for {
		seg, tail := splitSegment(rest)
		if seg == "" {
			return fmt.Errorf("%w: %q", ErrEmptyName, name)
		}
		if strings.ContainsAny(seg, "+#") {
			return fmt.Errorf("%w: %q", ErrWildcardInName, name)
		}
		if tail == "" {
			// "a/" splits to ("a", "") then ends — but a trailing slash
			// yields a final empty segment via the check below.
			if strings.HasSuffix(rest, "/") {
				return fmt.Errorf("%w: %q", ErrEmptyName, name)
			}
			return nil
		}
		rest = tail
	}
}

// ValidateFilter checks a subscription filter: non-empty, at most
// wire.MaxNameLen bytes (cohort filters travel in digests), no empty
// segments, '+' and '#' only as whole segments, '#' only last.
func ValidateFilter(filter string) error {
	if filter == "" {
		return fmt.Errorf("%w: %q", ErrEmptyName, filter)
	}
	if len(filter) > wire.MaxNameLen {
		return fmt.Errorf("%w: %d bytes, limit %d", ErrNameTooLong, len(filter), wire.MaxNameLen)
	}
	rest := filter
	for {
		seg, tail := splitSegment(rest)
		if seg == "" {
			return fmt.Errorf("%w: %q", ErrEmptyName, filter)
		}
		switch {
		case seg == "#":
			if tail != "" {
				return fmt.Errorf("%w: '#' must be the final segment: %q", ErrBadWildcard, filter)
			}
		case seg == "+":
			// a whole-segment '+': fine anywhere
		case strings.ContainsAny(seg, "+#"):
			return fmt.Errorf("%w: wildcard inside segment: %q", ErrBadWildcard, filter)
		}
		if tail == "" {
			if strings.HasSuffix(rest, "/") {
				return fmt.Errorf("%w: %q", ErrEmptyName, filter)
			}
			return nil
		}
		rest = tail
	}
}

// MatchTopic reports whether filter matches the stream name, using the
// same semantics as the trie (a one-shot matcher for tests, tooling,
// and the facade). Invalid filters or names never match.
func MatchTopic(filter, name string) bool {
	if ValidateFilter(filter) != nil || ValidateName(name) != nil {
		return false
	}
	return matchSegs(filter, name)
}

func matchSegs(filter, name string) bool {
	fseg, ftail := splitSegment(filter)
	if fseg == "#" {
		return true // matches the rest, including nothing more
	}
	nseg, ntail := splitSegment(name)
	if fseg != "+" && fseg != nseg {
		return false
	}
	switch {
	case ftail == "" && ntail == "":
		return true
	case ftail == "":
		return false // name has more levels than the filter
	case ntail == "":
		return ftail == "#" // "a/#" matches "a": zero remaining levels
	}
	return matchSegs(ftail, ntail)
}
