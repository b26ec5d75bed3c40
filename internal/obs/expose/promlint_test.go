package expose

import (
	"strings"
	"testing"
)

func TestValidateExpositionAccepts(t *testing.T) {
	doc := `# HELP sim_events_executed DiversiFi counter sim.events_executed
# TYPE sim_events_executed counter
sim_events_executed 1234

# HELP ap_queue_depth DiversiFi gauge ap.queue_depth
# TYPE ap_queue_depth gauge
ap_queue_depth 3
# some free-form comment
# HELP mac_access_wait_us DiversiFi histogram mac.access_wait_us
# TYPE mac_access_wait_us histogram
mac_access_wait_us_bucket{le="50"} 2
mac_access_wait_us_bucket{le="100"} 5
mac_access_wait_us_bucket{le="+Inf"} 7
mac_access_wait_us_sum 412
mac_access_wait_us_count 7
labeled_total{link="a",path="p\"q"} 9 1700000000
`
	st, err := ValidateExposition([]byte(doc))
	if err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
	if st.Families != 4 {
		t.Errorf("Families = %d, want 4", st.Families)
	}
	if st.Samples != 8 {
		t.Errorf("Samples = %d, want 8", st.Samples)
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string // substring of the error
	}{
		{"bad metric name", "1bad 5\n", "invalid metric name"},
		{"bad label name", `m{0x="v"} 1` + "\n", "invalid label name"},
		{"bad escape", `m{l="a\t"} 1` + "\n", "invalid escape"},
		{"unquoted label", `m{l=5} 1` + "\n", "not quoted"},
		{"bad value", "m five\n", "unparsable sample value"},
		{"bad timestamp", "m 5 soon\n", "unparsable timestamp"},
		{"no value", "m{a=\"b\"}\n", "needs `value [timestamp]`"},
		{
			"double help",
			"# HELP m x\n# HELP m y\n# TYPE m counter\nm 1\n",
			"second HELP",
		},
		{
			"double type",
			"# TYPE m counter\n# TYPE m counter\nm 1\n",
			"second TYPE",
		},
		{
			"type after samples",
			"m 1\n# TYPE m counter\n",
			"after its samples",
		},
		{
			"unknown type",
			"# TYPE m widget\nm 1\n",
			"unknown TYPE",
		},
		{
			"interleaved families",
			"a 1\nb 2\na 3\n",
			"must be grouped",
		},
		{
			"negative counter",
			"# TYPE m counter\nm -4\n",
			"negative value",
		},
		{
			"histogram missing inf",
			"# TYPE h histogram\nh_bucket{le=\"10\"} 1\nh_sum 4\nh_count 1\n",
			"no le=\"+Inf\"",
		},
		{
			"histogram not cumulative",
			"# TYPE h histogram\nh_bucket{le=\"10\"} 5\nh_bucket{le=\"20\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 4\nh_count 5\n",
			"not cumulative",
		},
		{
			"histogram count mismatch",
			"# TYPE h histogram\nh_bucket{le=\"10\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 4\nh_count 3\n",
			"_count 3",
		},
		{
			"histogram missing sum",
			"# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_count 2\n",
			"missing _sum or _count",
		},
		{
			"histogram bad le",
			"# TYPE h histogram\nh_bucket{le=\"ten\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
			"unparsable le",
		},
		{
			"histogram bare sample",
			"# TYPE h histogram\nh 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
			"bare sample",
		},
		{
			"histogram inf below last bucket",
			"# TYPE h histogram\nh_bucket{le=\"10\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
			"below last bound",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ValidateExposition([]byte(tc.doc))
			if err == nil {
				t.Fatalf("document accepted, want error containing %q:\n%s", tc.want, tc.doc)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestValidateExpositionEmpty(t *testing.T) {
	st, err := ValidateExposition(nil)
	if err != nil || st.Families != 0 || st.Samples != 0 {
		t.Fatalf("empty doc: stats %+v, err %v", st, err)
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"client.recovery_delay_us": "client_recovery_delay_us",
		"plain":                    "plain",
		"with:colon":               "with:colon",
		"9lives":                   "_9lives",
		"":                         "_",
		"a-b c":                    "a_b_c",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestValidateExpositionLabelEscaping pins the label-value escape rules:
// the three legal escapes decode, everything else is rejected with a
// position-bearing error.
func TestValidateExpositionLabelEscaping(t *testing.T) {
	accepts := []string{
		`m{l="back\\slash"} 1` + "\n",
		`m{l="quo\"te"} 1` + "\n",
		`m{l="new\nline"} 1` + "\n",
		`m{l="all\\three\n\"at once"} 1` + "\n",
		`m{} 1` + "\n",             // empty label block
		`m{a="1",} 1` + "\n",       // trailing comma
		`m{a="1", b="2"} 1` + "\n", // space after comma
	}
	for _, doc := range accepts {
		if _, err := ValidateExposition([]byte(doc)); err != nil {
			t.Errorf("escaped document rejected: %v\n%s", err, doc)
		}
	}
	rejects := []struct {
		name string
		doc  string
		want string
	}{
		{"tab escape", `m{l="a\t"} 1` + "\n", "invalid escape"},
		{"dangling escape", `m{l="a\` + "\n", "dangling escape"},
		{"unterminated value", `m{l="a} 1` + "\n", "unterminated label value"},
		{"missing equals", `m{l} 1` + "\n", "malformed label block"},
	}
	for _, tc := range rejects {
		if _, err := ValidateExposition([]byte(tc.doc)); err == nil {
			t.Errorf("%s: accepted:\n%s", tc.name, tc.doc)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}
}

// TestValidateExpositionInfBucketOrdering pins the +Inf checks: bucket
// lines may appear in any file order (the lint sorts by le), the +Inf
// bucket caps every finite bound, and each label set is audited
// independently.
func TestValidateExpositionInfBucketOrdering(t *testing.T) {
	// File order descending, but cumulative in ascending le order: valid.
	shuffled := "# TYPE h histogram\n" +
		"h_bucket{le=\"+Inf\"} 7\nh_bucket{le=\"20\"} 5\nh_bucket{le=\"10\"} 2\n" +
		"h_sum 99\nh_count 7\n"
	if _, err := ValidateExposition([]byte(shuffled)); err != nil {
		t.Errorf("out-of-file-order buckets rejected: %v", err)
	}
	// Counts that decrease in ascending le order must fail even when the
	// file order makes them look non-decreasing.
	misordered := "# TYPE h histogram\n" +
		"h_bucket{le=\"20\"} 3\nh_bucket{le=\"10\"} 5\nh_bucket{le=\"+Inf\"} 5\n" +
		"h_sum 1\nh_count 5\n"
	if _, err := ValidateExposition([]byte(misordered)); err == nil {
		t.Error("descending cumulative counts accepted")
	} else if !strings.Contains(err.Error(), "not cumulative") {
		t.Errorf("error %q does not mention cumulativity", err)
	}
	// Two label sets share the family; only {link="b"} is broken.
	perSet := "# TYPE h histogram\n" +
		"h_bucket{link=\"a\",le=\"10\"} 1\nh_bucket{link=\"a\",le=\"+Inf\"} 1\n" +
		"h_bucket{link=\"b\",le=\"10\"} 4\nh_bucket{link=\"b\",le=\"+Inf\"} 2\n" +
		"h_sum{link=\"a\"} 1\nh_count{link=\"a\"} 1\n" +
		"h_sum{link=\"b\"} 1\nh_count{link=\"b\"} 2\n"
	if _, err := ValidateExposition([]byte(perSet)); err == nil {
		t.Error("per-label-set +Inf below last bound accepted")
	} else if !strings.Contains(err.Error(), `link="b"`) {
		t.Errorf("error %q does not name the broken label set", err)
	}
}

// TestValidateExpositionDuplicateFamilies pins the grouping rule from
// every angle a generator could break it: a family reopened by a sample,
// by a HELP comment, or by a TYPE comment after other families closed it.
func TestValidateExpositionDuplicateFamilies(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"sample reopens", "a 1\nb 2\na 3\n"},
		{"help reopens", "# HELP a x\na 1\nb 2\n# HELP a y\n"},
		{"type reopens", "# TYPE a counter\na 1\nb 2\n# TYPE a counter\na 3\n"},
	}
	for _, tc := range cases {
		_, err := ValidateExposition([]byte(tc.doc))
		if err == nil {
			t.Errorf("%s: accepted:\n%s", tc.name, tc.doc)
			continue
		}
		if !strings.Contains(err.Error(), "must be grouped") {
			t.Errorf("%s: error %q does not mention grouping", tc.name, err)
		}
	}
	// Consecutive samples of one family with different labels are fine.
	ok := "a{l=\"1\"} 1\na{l=\"2\"} 2\nb 3\n"
	if _, err := ValidateExposition([]byte(ok)); err != nil {
		t.Errorf("consecutive labeled samples rejected: %v", err)
	}
}
