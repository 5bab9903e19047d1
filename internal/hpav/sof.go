package hpav

import (
	"encoding/binary"
	"fmt"

	"repro/internal/config"
)

// TEI is a terminal equipment identifier: the short station address the
// central coordinator assigns when a station joins the AV logical
// network. Delimiters carry TEIs, not MACs.
type TEI uint8

// MaxTransmitters is how many transmitters a strip with one destination
// can address. TEI 0 is unassigned and TEI 255 is the broadcast TEI; the
// destination holds TEI 1, which leaves TEIs 2–254.
const MaxTransmitters = 253

// DelimiterType distinguishes the 1901 frame-control delimiters.
type DelimiterType uint8

const (
	// DelimiterSoF starts an MPDU (start-of-frame).
	DelimiterSoF DelimiterType = 1
	// DelimiterSACK is a selective acknowledgment.
	DelimiterSACK DelimiterType = 2
)

// String names the delimiter type.
func (d DelimiterType) String() string {
	switch d {
	case DelimiterSoF:
		return "SoF"
	case DelimiterSACK:
		return "SACK"
	default:
		return fmt.Sprintf("DelimiterType(%d)", uint8(d))
	}
}

// SoF is the start-of-frame delimiter, the frame-control structure the
// sniffer mode captures (Section 3.3). The fields exposed are exactly
// the ones the paper's methodology uses:
//
//   - LinkID encodes the priority of the frame, distinguishing CA1 data
//     from CA2/CA3 management traffic;
//   - MPDUCnt is the number of MPDUs *remaining* in the current burst
//     (0 marks the last MPDU of a burst — the paper's burst-boundary
//     detector);
//   - STEI identifies the source for fairness traces;
//   - FrameLength and PBCount describe the payload for overhead
//     accounting.
type SoF struct {
	// STEI and DTEI are the source and destination station identifiers.
	STEI, DTEI TEI
	// LinkID carries the channel-access priority of the MPDU.
	LinkID config.Priority
	// MPDUCnt is the number of MPDUs remaining in the burst after this
	// one (2-bit field in the standard; up to 4 MPDUs per burst).
	MPDUCnt uint8
	// PBCount is the number of 512-byte physical blocks in the MPDU.
	PBCount uint16
	// FrameLength is the MPDU payload duration on the wire, encoded in
	// units of 1.28 µs as in the standard's FL_AV field.
	FrameLength uint16
	// BurstID tags all MPDUs of one burst with a common identifier so
	// traces can be grouped without inferring boundaries (a convenience
	// the real SoF lacks; the tools only use MPDUCnt).
	BurstID uint32
}

// MaxBurstMPDUs is the burst-size limit: "Up to four MPDUs may be
// supported in a burst" (Section 3.1).
const MaxBurstMPDUs = 4

// FLUnit is the duration granularity of the FrameLength field in µs.
const FLUnit = 1.28

// sofLen: type(1) + stei(1) + dtei(1) + linkid(1) + mpducnt(1) +
// pbcount(2) + framelength(2) + burstid(4).
const sofLen = 13

// EncodeFrameLength converts a µs duration into FL_AV units (rounding
// to nearest; saturating at the field's 16-bit range).
func EncodeFrameLength(us float64) uint16 {
	if us <= 0 {
		return 0
	}
	v := us/FLUnit + 0.5
	if v >= 65535 {
		return 65535
	}
	return uint16(v)
}

// DurationMicros returns the payload duration in µs.
func (s *SoF) DurationMicros() float64 { return float64(s.FrameLength) * FLUnit }

// LastInBurst reports whether this MPDU closes its burst (MPDUCnt = 0),
// the condition Section 3.3 uses to count bursts.
func (s *SoF) LastInBurst() bool { return s.MPDUCnt == 0 }

// Marshal encodes the delimiter.
func (s *SoF) Marshal() []byte {
	if s.MPDUCnt >= MaxBurstMPDUs {
		panic(fmt.Sprintf("hpav: SoF.MPDUCnt = %d exceeds the 2-bit burst field (max %d)", s.MPDUCnt, MaxBurstMPDUs-1))
	}
	b := make([]byte, sofLen)
	b[0] = byte(DelimiterSoF)
	b[1] = byte(s.STEI)
	b[2] = byte(s.DTEI)
	b[3] = byte(s.LinkID)
	b[4] = s.MPDUCnt
	binary.LittleEndian.PutUint16(b[5:7], s.PBCount)
	binary.LittleEndian.PutUint16(b[7:9], s.FrameLength)
	binary.LittleEndian.PutUint32(b[9:13], s.BurstID)
	return b
}

// UnmarshalSoF decodes and validates an SoF delimiter.
func UnmarshalSoF(b []byte) (*SoF, error) {
	if len(b) < sofLen {
		return nil, fmt.Errorf("%w: SoF %d bytes, need %d", ErrShortFrame, len(b), sofLen)
	}
	if DelimiterType(b[0]) != DelimiterSoF {
		return nil, fmt.Errorf("%w: delimiter type %d is not SoF", ErrPayload, b[0])
	}
	s := &SoF{
		STEI:        TEI(b[1]),
		DTEI:        TEI(b[2]),
		LinkID:      config.Priority(b[3]),
		MPDUCnt:     b[4],
		PBCount:     binary.LittleEndian.Uint16(b[5:7]),
		FrameLength: binary.LittleEndian.Uint16(b[7:9]),
		BurstID:     binary.LittleEndian.Uint32(b[9:13]),
	}
	if !s.LinkID.Valid() {
		return nil, fmt.Errorf("%w: SoF link id %d is not a priority class", ErrPayload, b[3])
	}
	if s.MPDUCnt >= MaxBurstMPDUs {
		return nil, fmt.Errorf("%w: SoF MPDUCnt %d exceeds burst limit", ErrPayload, s.MPDUCnt)
	}
	return s, nil
}

// SACK is the selective-acknowledgment delimiter. Per Section 3.2, the
// destination acknowledges even collided frames when it could decode
// the (robustly modulated) preamble, marking every physical block as
// errored; AllErrored carries that indication.
type SACK struct {
	// STEI/DTEI identify the acknowledging and acknowledged stations.
	STEI, DTEI TEI
	// ReceivedPBs is the number of physical blocks received intact.
	ReceivedPBs uint16
	// TotalPBs is the number of physical blocks in the acked MPDU.
	TotalPBs uint16
	// AllErrored indicates that every block failed — the collision
	// signature that still increments the transmitter's Acked counter.
	AllErrored bool
}

// sackLen: type(1) + stei(1) + dtei(1) + received(2) + total(2) + flags(1).
const sackLen = 8

// Marshal encodes the delimiter.
func (s *SACK) Marshal() []byte {
	b := make([]byte, sackLen)
	b[0] = byte(DelimiterSACK)
	b[1] = byte(s.STEI)
	b[2] = byte(s.DTEI)
	binary.LittleEndian.PutUint16(b[3:5], s.ReceivedPBs)
	binary.LittleEndian.PutUint16(b[5:7], s.TotalPBs)
	if s.AllErrored {
		b[7] = 1
	}
	return b
}

// UnmarshalSACK decodes and validates a SACK delimiter.
func UnmarshalSACK(b []byte) (*SACK, error) {
	if len(b) < sackLen {
		return nil, fmt.Errorf("%w: SACK %d bytes, need %d", ErrShortFrame, len(b), sackLen)
	}
	if DelimiterType(b[0]) != DelimiterSACK {
		return nil, fmt.Errorf("%w: delimiter type %d is not SACK", ErrPayload, b[0])
	}
	s := &SACK{
		STEI:        TEI(b[1]),
		DTEI:        TEI(b[2]),
		ReceivedPBs: binary.LittleEndian.Uint16(b[3:5]),
		TotalPBs:    binary.LittleEndian.Uint16(b[5:7]),
		AllErrored:  b[7]&1 != 0,
	}
	if s.ReceivedPBs > s.TotalPBs {
		return nil, fmt.Errorf("%w: SACK received %d > total %d", ErrPayload, s.ReceivedPBs, s.TotalPBs)
	}
	if s.AllErrored && s.ReceivedPBs != 0 {
		return nil, fmt.Errorf("%w: SACK all-errored with %d received blocks", ErrPayload, s.ReceivedPBs)
	}
	return s, nil
}
