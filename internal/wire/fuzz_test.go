package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"testing/quick"
)

// Property tests (testing/quick): every body round-trips through its
// binary codec field-for-field, for arbitrary field values.

func TestQuickRoundtripBodies(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}

	if err := quick.Check(func(v int64, n uint64) bool {
		in := Buy{Value: v, Nonce: n}
		var out Buy
		if err := out.UnmarshalBinary(in.MarshalBinary()); err != nil {
			return false
		}
		return out == in
	}, cfg); err != nil {
		t.Error("Buy:", err)
	}

	if err := quick.Check(func(n uint64, ok bool) bool {
		in := BuyReply{Nonce: n, Accepted: ok}
		var out BuyReply
		if err := out.UnmarshalBinary(in.MarshalBinary()); err != nil {
			return false
		}
		return out == in
	}, cfg); err != nil {
		t.Error("BuyReply:", err)
	}

	if err := quick.Check(func(v int64, n uint64) bool {
		in := Sell{Value: v, Nonce: n}
		var out Sell
		if err := out.UnmarshalBinary(in.MarshalBinary()); err != nil {
			return false
		}
		return out == in
	}, cfg); err != nil {
		t.Error("Sell:", err)
	}

	if err := quick.Check(func(n uint64) bool {
		in := SellReply{Nonce: n}
		var out SellReply
		if err := out.UnmarshalBinary(in.MarshalBinary()); err != nil {
			return false
		}
		return out == in
	}, cfg); err != nil {
		t.Error("SellReply:", err)
	}

	if err := quick.Check(func(s uint64) bool {
		in := Request{Seq: s}
		var out Request
		if err := out.UnmarshalBinary(in.MarshalBinary()); err != nil {
			return false
		}
		return out == in
	}, cfg); err != nil {
		t.Error("Request:", err)
	}

	if err := quick.Check(func(s uint64, credits []int64) bool {
		in := CreditReport{Seq: s, Credits: credits}
		var out CreditReport
		if err := out.UnmarshalBinary(in.MarshalBinary()); err != nil {
			return false
		}
		if out.Seq != in.Seq || len(out.Credits) != len(in.Credits) {
			return false
		}
		for i := range in.Credits {
			if out.Credits[i] != in.Credits[i] {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Error("CreditReport:", err)
	}
}

func TestQuickRoundtripEnvelope(t *testing.T) {
	if err := quick.Check(func(kind uint8, from int32, payload []byte) bool {
		in := Envelope{Kind: Kind(kind), From: from, Payload: payload}
		var out Envelope
		if err := out.UnmarshalBinary(in.MarshalBinary()); err != nil {
			return false
		}
		return out.Kind == in.Kind && out.From == in.From &&
			bytes.Equal(out.Payload, in.Payload)
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Fuzz targets: decoders must never panic, and on inputs they accept
// the decoded value must re-encode consistently.

func FuzzDecodeEnvelope(f *testing.F) {
	f.Add([]byte{})
	f.Add((&Envelope{Kind: KindBuy, From: 3, Payload: []byte("sealed")}).MarshalBinary())
	f.Add([]byte{0x5A, 0x4D, 1, 0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 1, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var e Envelope
		if err := e.UnmarshalBinary(data); err != nil {
			return
		}
		// Accepted input: re-encoding must reproduce the decoded view.
		var e2 Envelope
		if err := e2.UnmarshalBinary(e.MarshalBinary()); err != nil {
			t.Fatalf("re-decode of accepted envelope failed: %v", err)
		}
		if e2.Kind != e.Kind || e2.From != e.From || !bytes.Equal(e2.Payload, e.Payload) {
			t.Fatalf("roundtrip drift: %+v vs %+v", e, e2)
		}
	})
}

func FuzzDecodeBodies(f *testing.F) {
	f.Add([]byte{})
	f.Add((&Buy{Value: 500, Nonce: 42}).MarshalBinary())
	f.Add((&CreditReport{Seq: 9, Credits: []int64{-3, 0, 3}}).MarshalBinary())
	f.Add((&Sell{Value: 120, Nonce: 77}).MarshalBinary())
	f.Add((&BuyReply{Nonce: 77, Accepted: true}).MarshalBinary())
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Every decoder sees every input: none may panic, and claimed
		// lengths beyond the data must be rejected, never allocated.
		var br BuyReply
		_ = br.UnmarshalBinary(data)
		var sr SellReply
		_ = sr.UnmarshalBinary(data)
		var rq Request
		_ = rq.UnmarshalBinary(data)
		var buy Buy
		if err := buy.UnmarshalBinary(data); err == nil {
			// Accepted fixed-size bodies re-encode to the prefix they were
			// decoded from, through the append path.
			if got := buy.AppendBinary(nil); !bytes.Equal(got, data[:len(got)]) {
				t.Fatalf("Buy re-encode differs from accepted prefix")
			}
		}
		var sell Sell
		if err := sell.UnmarshalBinary(data); err == nil {
			if got := sell.AppendBinary(nil); !bytes.Equal(got, data[:len(got)]) {
				t.Fatalf("Sell re-encode differs from accepted prefix")
			}
		}
		var cr CreditReport
		if err := cr.UnmarshalBinary(data); err == nil {
			if got := cr.MarshalBinary(); !bytes.Equal(got, data[:len(got)]) {
				t.Fatalf("CreditReport re-encode differs from accepted prefix")
			}
		}
	})
}

func FuzzReadEnvelope(f *testing.F) {
	var framed bytes.Buffer
	if err := WriteEnvelope(&framed, &Envelope{Kind: KindReply, From: 1, Payload: []byte{1, 2, 3}}); err != nil {
		f.Fatal(err)
	}
	f.Add(framed.Bytes())
	var sellFramed bytes.Buffer
	if err := WriteEnvelope(&sellFramed, &Envelope{Kind: KindSell, From: 2, Trace: 5, Payload: []byte{9, 9}}); err != nil {
		f.Fatal(err)
	}
	f.Add(sellFramed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})     // length > MaxEnvelopeSize
	f.Add([]byte{10, 0, 0, 0, 0x5A, 0x4D, 1}) // truncated body
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := ReadEnvelope(bytes.NewReader(data))
		if err != nil {
			if e != nil {
				t.Fatal("error with non-nil envelope")
			}
			return
		}
		// A successfully read envelope must write back to a stream that
		// reads to the same envelope.
		var buf bytes.Buffer
		if err := WriteEnvelope(&buf, e); err != nil {
			t.Fatalf("re-write of read envelope failed: %v", err)
		}
		e2, err := ReadEnvelope(&buf)
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if e2.Kind != e.Kind || e2.From != e.From || !bytes.Equal(e2.Payload, e.Payload) {
			t.Fatalf("stream roundtrip drift: %+v vs %+v", e, e2)
		}
	})
}

// TestReadEnvelopeRejectsOversize pins the framing guard the fuzzer
// relies on: a length prefix above MaxEnvelopeSize errors before any
// allocation.
func TestReadEnvelopeRejectsOversize(t *testing.T) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], MaxEnvelopeSize+1)
	_, err := ReadEnvelope(bytes.NewReader(buf[:]))
	if err != ErrTooLarge {
		t.Fatalf("oversize frame => %v, want %v", err, ErrTooLarge)
	}
	// And a short stream surfaces as an io error, not a panic.
	if _, err := ReadEnvelope(bytes.NewReader([]byte{1})); err == nil {
		t.Fatal("truncated length prefix accepted")
	}
	if _, err := ReadEnvelope(io.LimitReader(bytes.NewReader(framedPrefix(t)), 6)); err == nil {
		t.Fatal("truncated body accepted")
	}
}

func framedPrefix(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteEnvelope(&buf, &Envelope{Kind: KindBuy, From: 0, Payload: []byte("xx")}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
