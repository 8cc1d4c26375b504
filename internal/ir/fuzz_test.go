package ir

import "testing"

// FuzzParse feeds arbitrary text to the parser. No input may panic it, and
// any input that parses and verifies must print to text that re-parses and
// prints identically (FormatModule is a fixpoint of Parse). The seed corpus
// in testdata/fuzz/FuzzParse holds histogram.pir and the TestParseErrors
// inputs.
func FuzzParse(f *testing.F) {
	f.Add(sampleIR)
	f.Fuzz(func(t *testing.T, src string) {
		m, err := Parse(src)
		if err != nil || Verify(m) != nil {
			return
		}
		once := FormatModule(m)
		m2, err := Parse(once)
		if err != nil {
			t.Fatalf("formatted module does not re-parse: %v\n%s", err, once)
		}
		if twice := FormatModule(m2); twice != once {
			t.Fatalf("format not a fixpoint:\n--- once ---\n%s\n--- twice ---\n%s", once, twice)
		}
	})
}
