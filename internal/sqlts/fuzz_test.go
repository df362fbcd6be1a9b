package sqlts

import "testing"

// FuzzParseRule feeds arbitrary text to the rule parser, starting from
// the paper's five rules (testdata/fuzz). It must not panic, and a rule
// that parses must print to text that parses back to the same print.
func FuzzParseRule(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		r, err := Parse(src)
		if err != nil {
			return
		}
		printed := r.String()
		again, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed rule does not parse: %v\n%s", err, printed)
		}
		if p2 := again.String(); p2 != printed {
			t.Fatalf("print→parse→print is not a fixed point:\n%s\n%s", printed, p2)
		}
	})
}
