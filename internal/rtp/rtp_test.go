package rtp

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	p := Packet{
		Header: Header{
			Marker: true, PayloadType: 0, Sequence: 4242,
			Timestamp: 160000, SSRC: 0xdeadbeef,
			CSRC: []uint32{1, 2, 3},
		},
		Payload: []byte("G.711 samples"),
	}
	wire, err := p.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.PayloadType != 0 || !got.Marker || got.Sequence != 4242 ||
		got.Timestamp != 160000 || got.SSRC != 0xdeadbeef {
		t.Fatalf("header mismatch: %+v", got.Header)
	}
	if len(got.CSRC) != 3 || got.CSRC[2] != 3 {
		t.Fatalf("CSRC mismatch: %v", got.CSRC)
	}
	if !bytes.Equal(got.Payload, p.Payload) {
		t.Fatalf("payload mismatch: %q", got.Payload)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(pt uint8, seq uint16, ts, ssrc uint32, marker bool, payload []byte) bool {
		p := Packet{
			Header: Header{
				Marker: marker, PayloadType: pt & 0x7f,
				Sequence: seq, Timestamp: ts, SSRC: ssrc,
			},
			Payload: payload,
		}
		wire, err := p.Marshal(nil)
		if err != nil {
			return false
		}
		got, err := Parse(wire)
		if err != nil {
			return false
		}
		return got.PayloadType == pt&0x7f && got.Sequence == seq &&
			got.Timestamp == ts && got.SSRC == ssrc && got.Marker == marker &&
			bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseRejects(t *testing.T) {
	if _, err := Parse(make([]byte, 11)); err == nil {
		t.Error("short packet accepted")
	}
	bad := make([]byte, 12)
	bad[0] = 1 << 6 // version 1
	if _, err := Parse(bad); err == nil {
		t.Error("version 1 accepted")
	}
	// CSRC count pointing past the end.
	trunc := make([]byte, 12)
	trunc[0] = Version<<6 | 5
	if _, err := Parse(trunc); err == nil {
		t.Error("truncated CSRCs accepted")
	}
}

func TestParsePadding(t *testing.T) {
	p := Packet{Header: Header{PayloadType: 8, Sequence: 1}, Payload: []byte{1, 2, 3}}
	wire, _ := p.Marshal(nil)
	// Add 2 bytes of padding manually and set the P bit.
	wire = append(wire, 0, 2)
	wire[0] |= 0x20
	got, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Payload, []byte{1, 2, 3}) {
		t.Fatalf("padded payload = %v", got.Payload)
	}
	// Bogus padding length.
	wire[len(wire)-1] = 200
	if _, err := Parse(wire); err == nil {
		t.Error("bogus padding accepted")
	}
}

func TestParseExtension(t *testing.T) {
	p := Packet{Header: Header{PayloadType: 0, Sequence: 9}, Payload: []byte("xyz")}
	wire, _ := p.Marshal(nil)
	// Splice in a 4-byte extension header with one 32-bit word.
	ext := []byte{0xbe, 0xde, 0x00, 0x01, 1, 2, 3, 4}
	full := append(append(append([]byte{}, wire[:12]...), ext...), wire[12:]...)
	full[0] |= 0x10
	got, err := Parse(full)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Payload, []byte("xyz")) {
		t.Fatalf("payload after extension = %q", got.Payload)
	}
	if !got.Extension {
		t.Error("extension flag lost")
	}
}

func TestMarshalValidation(t *testing.T) {
	p := Packet{Header: Header{CSRC: make([]uint32, 16)}}
	if _, err := p.Marshal(nil); err == nil {
		t.Error("16 CSRCs accepted")
	}
	q := Packet{Header: Header{PayloadType: 200}}
	if _, err := q.Marshal(nil); err == nil {
		t.Error("payload type 200 accepted")
	}
}
