package fanout

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"repro/internal/wire"
)

// matchAll is the test harness's view of a trie: collect every match.
func matchAll(t *Trie[int], name string) []int {
	out := t.MatchAppend(name, nil)
	sort.Ints(out)
	return out
}

func eq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTrieMatchSemantics nails the MQTT-style wildcard contract on a
// small hand-built trie.
func TestTrieMatchSemantics(t *testing.T) {
	tr := New[int]()
	filters := []string{
		"eu/zurich/web-1/nginx", // 0: exact
		"eu/zurich/web-1/+",     // 1: any service on one host
		"eu/+/+/nginx",          // 2: nginx anywhere in eu
		"eu/#",                  // 3: the whole region
		"#",                     // 4: everything
		"eu/zurich/#",           // 5: one cluster subtree
		"+/zurich/web-1/nginx",  // 6: one stream across regions
		"us/+/web-1/nginx",      // 7: other region — must not fire for eu
	}
	for i, f := range filters {
		if _, err := tr.Subscribe(f, i); err != nil {
			t.Fatalf("Subscribe(%q): %v", f, err)
		}
	}

	cases := []struct {
		name string
		want []int
	}{
		{"eu/zurich/web-1/nginx", []int{0, 1, 2, 3, 4, 5, 6}},
		{"eu/zurich/web-1/redis", []int{1, 3, 4, 5}},
		{"eu/zurich/web-2/nginx", []int{2, 3, 4, 5}},
		{"eu/paris/web-1/nginx", []int{2, 3, 4}},
		{"us/zurich/web-1/nginx", []int{4, 6, 7}},
		{"eu/zurich", []int{3, 4, 5}}, // '#' matches zero remaining levels
		{"eu", []int{3, 4}},
		{"ap/tokyo/web-1/nginx", []int{4}},
		{"eu/zurich/web-1/nginx/extra", []int{3, 4, 5}}, // deeper than the exact filters
	}
	for _, c := range cases {
		if got := matchAll(tr, c.name); !eq(got, c.want) {
			t.Errorf("match(%q) = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestTrieUnsubscribePrunes verifies detach removes delivery and that
// empty nodes are pruned so churn cannot leak trie memory.
func TestTrieUnsubscribePrunes(t *testing.T) {
	tr := New[int]()
	s1, _ := tr.Subscribe("a/b/c", 1)
	s2, _ := tr.Subscribe("a/b/+", 2)
	s3, _ := tr.Subscribe("a/#", 3)

	if st := tr.Stats(); st.Subscriptions != 3 {
		t.Fatalf("Subscriptions = %d, want 3", st.Subscriptions)
	}
	if got := matchAll(tr, "a/b/c"); !eq(got, []int{1, 2, 3}) {
		t.Fatalf("pre-detach match = %v", got)
	}

	tr.Unsubscribe(s1)
	tr.Unsubscribe(s1) // idempotent
	if got := matchAll(tr, "a/b/c"); !eq(got, []int{2, 3}) {
		t.Fatalf("post-detach match = %v", got)
	}

	tr.Unsubscribe(s2)
	tr.Unsubscribe(s3)
	st := tr.Stats()
	if st.Subscriptions != 0 {
		t.Fatalf("Subscriptions = %d, want 0", st.Subscriptions)
	}
	if st.Nodes != 0 {
		t.Fatalf("Nodes = %d after full detach, want 0 (prune leak)", st.Nodes)
	}
	if got := matchAll(tr, "a/b/c"); len(got) != 0 {
		t.Fatalf("empty trie matched %v", got)
	}
}

// TestTrieSharedPrefixPruneKeepsSiblings: pruning one branch must not
// disturb a live sibling sharing the prefix.
func TestTrieSharedPrefixPruneKeepsSiblings(t *testing.T) {
	tr := New[int]()
	s1, _ := tr.Subscribe("a/b/c", 1)
	_, _ = tr.Subscribe("a/b/d", 2)
	tr.Unsubscribe(s1)
	if got := matchAll(tr, "a/b/d"); !eq(got, []int{2}) {
		t.Fatalf("sibling lost after prune: %v", got)
	}
	if got := matchAll(tr, "a/b/c"); len(got) != 0 {
		t.Fatalf("pruned branch still matches: %v", got)
	}
}

func TestValidateName(t *testing.T) {
	good := []string{"a", "a/b", "region/cluster/host/service", "10.0.0.1:7946", "a-b_c.d",
		strings.Repeat("n", wire.MaxNameLen)}
	for _, n := range good {
		if err := ValidateName(n); err != nil {
			t.Errorf("ValidateName(%q) = %v, want nil", n, err)
		}
	}
	bad := []struct {
		name string
		err  error
	}{
		{"", ErrEmptyName},
		{"a//b", ErrEmptyName}, // the ISSUE's regression case
		{"/a", ErrEmptyName},
		{"a/", ErrEmptyName},
		{"a/b/", ErrEmptyName},
		{"a/+/b", ErrWildcardInName},
		{"a/#", ErrWildcardInName},
		{"a#b", ErrWildcardInName},
		{"svc+1", ErrWildcardInName},
		{strings.Repeat("n", wire.MaxNameLen+1), ErrNameTooLong},
	}
	for _, c := range bad {
		if err := ValidateName(c.name); !errors.Is(err, c.err) {
			t.Errorf("ValidateName(%q) = %v, want %v", c.name, err, c.err)
		}
	}
}

func TestValidateFilter(t *testing.T) {
	good := []string{"a", "a/b", "+", "#", "a/+", "a/#", "+/+/#", "a/+/c"}
	for _, f := range good {
		if err := ValidateFilter(f); err != nil {
			t.Errorf("ValidateFilter(%q) = %v, want nil", f, err)
		}
	}
	bad := []struct {
		filter string
		err    error
	}{
		{"", ErrEmptyName},
		{"a//b", ErrEmptyName},
		{"/a", ErrEmptyName},
		{"a/", ErrEmptyName},
		{"#/a", ErrBadWildcard},
		{"a/#/b", ErrBadWildcard},
		{"a+/b", ErrBadWildcard},
		{"a/b#", ErrBadWildcard},
		{strings.Repeat("n", wire.MaxNameLen-1) + "/#", ErrNameTooLong},
	}
	for _, c := range bad {
		if err := ValidateFilter(c.filter); !errors.Is(err, c.err) {
			t.Errorf("ValidateFilter(%q) = %v, want %v", c.filter, err, c.err)
		}
	}
	// An invalid filter must not change the trie.
	tr := New[int]()
	if _, err := tr.Subscribe("a//b", 9); err == nil {
		t.Fatal("Subscribe accepted an invalid filter")
	}
	if st := tr.Stats(); st.Subscriptions != 0 || st.Nodes != 0 {
		t.Fatalf("invalid Subscribe mutated the trie: %+v", st)
	}
}

func TestMatchTopicStandalone(t *testing.T) {
	cases := []struct {
		filter, name string
		want         bool
	}{
		{"a/b", "a/b", true},
		{"a/+", "a/b", true},
		{"a/+", "a", false},
		{"a/#", "a", true},
		{"a/#", "a/b/c", true},
		{"#", "anything/at/all", true},
		{"+/b", "a/b", true},
		{"+", "a/b", false},
		{"a/b", "a/b/c", false},
		{"a/b/c", "a/b", false},
		{"a//b", "a/b", false}, // invalid filter never matches
		{"a/+", "a/+", false},  // invalid name never matches
	}
	for _, c := range cases {
		if got := MatchTopic(c.filter, c.name); got != c.want {
			t.Errorf("MatchTopic(%q, %q) = %v, want %v", c.filter, c.name, got, c.want)
		}
	}
}

// TestTrieMatchCounting: Stats.Matches accumulates routed deliveries.
func TestTrieMatchCounting(t *testing.T) {
	tr := New[int]()
	_, _ = tr.Subscribe("a/#", 1)
	_, _ = tr.Subscribe("a/b", 2)
	tr.MatchAppend("a/b", nil) // 2 matches
	tr.MatchAppend("a/c", nil) // 1 match
	tr.MatchAppend("x", nil)   // 0 matches
	if st := tr.Stats(); st.Matches != 3 {
		t.Fatalf("Matches = %d, want 3", st.Matches)
	}
	got := 0
	tr.Match("a/b", func(int) { got++ })
	if got != 2 {
		t.Fatalf("Match callback fired %d times, want 2", got)
	}
}
