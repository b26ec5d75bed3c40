// Package rtp implements the RFC 3550 RTP fixed header. The live emulator
// carries an unmodified application's RTP packets (§5.2.1): its sender
// frames a stream as RTP, and emu.DecodeStream keys a stream by its SSRC
// and orders it by the RTP sequence number. This package provides the
// parsing and serialization both need.
package rtp

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Version is the RTP version this package speaks.
const Version = 2

// HeaderLen is the fixed header size without CSRCs.
const HeaderLen = 12

// Header is the RTP fixed header (RFC 3550 §5.1).
type Header struct {
	Padding     bool
	Extension   bool
	Marker      bool
	PayloadType uint8 // 7 bits
	Sequence    uint16
	Timestamp   uint32
	SSRC        uint32
	CSRC        []uint32 // up to 15 contributing sources
}

// Packet is a parsed RTP packet; Payload aliases the input buffer.
type Packet struct {
	Header
	Payload []byte
}

// Errors returned by Parse.
var (
	ErrTooShort   = errors.New("rtp: packet too short")
	ErrBadVersion = errors.New("rtp: unsupported version")
	ErrBadPadding = errors.New("rtp: invalid padding")
)

// Parse decodes an RTP packet. The payload slice aliases data.
func Parse(data []byte) (Packet, error) {
	if len(data) < HeaderLen {
		return Packet{}, ErrTooShort
	}
	v := data[0] >> 6
	if v != Version {
		return Packet{}, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	var p Packet
	p.Padding = data[0]&0x20 != 0
	p.Extension = data[0]&0x10 != 0
	cc := int(data[0] & 0x0f)
	p.Marker = data[1]&0x80 != 0
	p.PayloadType = data[1] & 0x7f
	p.Sequence = binary.BigEndian.Uint16(data[2:4])
	p.Timestamp = binary.BigEndian.Uint32(data[4:8])
	p.SSRC = binary.BigEndian.Uint32(data[8:12])

	off := HeaderLen + 4*cc
	if len(data) < off {
		return Packet{}, ErrTooShort
	}
	for i := 0; i < cc; i++ {
		p.CSRC = append(p.CSRC, binary.BigEndian.Uint32(data[HeaderLen+4*i:]))
	}
	if p.Extension {
		if len(data) < off+4 {
			return Packet{}, ErrTooShort
		}
		extLen := int(binary.BigEndian.Uint16(data[off+2:off+4])) * 4
		off += 4 + extLen
		if len(data) < off {
			return Packet{}, ErrTooShort
		}
	}
	payload := data[off:]
	if p.Padding {
		if len(payload) == 0 {
			return Packet{}, ErrBadPadding
		}
		pad := int(payload[len(payload)-1])
		if pad == 0 || pad > len(payload) {
			return Packet{}, ErrBadPadding
		}
		payload = payload[:len(payload)-pad]
	}
	p.Payload = payload
	return p, nil
}

// Marshal serializes the packet (without extension support; Extension is
// cleared). buf is reused when large enough.
func (p *Packet) Marshal(buf []byte) ([]byte, error) {
	if len(p.CSRC) > 15 {
		return nil, fmt.Errorf("rtp: %d CSRCs exceeds 15", len(p.CSRC))
	}
	if p.PayloadType > 0x7f {
		return nil, fmt.Errorf("rtp: payload type %d out of range", p.PayloadType)
	}
	need := HeaderLen + 4*len(p.CSRC) + len(p.Payload)
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	buf = buf[:need]
	b0 := byte(Version << 6)
	if p.Padding {
		// Padding is the receiver's concern; Marshal emits none and
		// clears the bit to keep the wire form self-consistent.
		b0 &^= 0x20
	}
	buf[0] = b0 | byte(len(p.CSRC))
	b1 := p.PayloadType
	if p.Marker {
		b1 |= 0x80
	}
	buf[1] = b1
	binary.BigEndian.PutUint16(buf[2:4], p.Sequence)
	binary.BigEndian.PutUint32(buf[4:8], p.Timestamp)
	binary.BigEndian.PutUint32(buf[8:12], p.SSRC)
	for i, c := range p.CSRC {
		binary.BigEndian.PutUint32(buf[HeaderLen+4*i:], c)
	}
	copy(buf[HeaderLen+4*len(p.CSRC):], p.Payload)
	return buf, nil
}
