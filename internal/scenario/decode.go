package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// DecodeSpec parses and validates a scenario-v1 document. The syntax is
// sniffed: documents opening with '{' are JSON, everything else is the
// YAML subset (yaml.go). Both routes decode strictly — unknown fields,
// malformed ranges, non-finite numbers, and out-of-range parameters are
// rejected with errors naming the offending field.
func DecodeSpec(data []byte) (*Spec, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	doc := data
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("scenario: empty spec document")
	}
	if trimmed[0] != '{' {
		v, err := yamlToValue(data)
		if err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		doc, err = json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("scenario: internal yaml conversion: %w", err)
		}
	}
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parse spec: %w", err)
	}
	// A second document (or trailing garbage, a stray '}' or ']' included)
	// is a malformed spec, not an extension point.
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("scenario: parse spec: trailing content after document")
	}
	if err := s.normalize(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadSpec reads and decodes a spec file.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := DecodeSpec(data)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return s, nil
}

// Hash returns the spec's canonical fingerprint. Two semantically equal
// documents — YAML or JSON, defaults spelled out or omitted — share a
// hash, and with it a generated corpus: the generator folds the hash into
// every per-index stream name.
func (s *Spec) Hash() string { return s.hash }

// computeHash hashes the normalized document. The normalized Spec's JSON
// encoding is canonical: struct field order is fixed, defaults are filled
// in, and Range always marshals as [lo, hi].
func (s *Spec) computeHash() string {
	doc, err := json.Marshal(s)
	if err != nil {
		// A validated spec always marshals; this is unreachable without a
		// code bug, and hashing must not silently degrade.
		panic(fmt.Sprintf("scenario: marshal normalized spec: %v", err))
	}
	h := sha256.New()
	h.Write([]byte(SpecSchema + "|"))
	h.Write(doc)
	return hex.EncodeToString(h.Sum(nil)[:16])
}
