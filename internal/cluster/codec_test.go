package cluster

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// frameRoundTrip encodes one message into a finished frame and decodes it
// back through decodeFrame, failing on any frame-layer mismatch.
func frameRoundTrip(t *testing.T, typ byte, encode func([]byte) []byte) []byte {
	t.Helper()
	frame := finishFrame(encode(beginFrame(nil, typ)))
	gotTyp, payload, err := decodeFrame(frame)
	if err != nil {
		t.Fatalf("decodeFrame: %v", err)
	}
	if gotTyp != typ {
		t.Fatalf("frame type = %d, want %d", gotTyp, typ)
	}
	return payload
}

func TestCodecRegisterRoundTrip(t *testing.T) {
	in := RegisterRequest{
		ID: "node-a", Capacity: 4, SpeedOPS: 2.5e8,
		Transports: []string{TransportBinary, TransportJSON},
	}
	payload := frameRoundTrip(t, msgRegister, func(dst []byte) []byte {
		return appendRegisterRequest(dst, in)
	})
	var out RegisterRequest
	if err := decodeRegisterRequest(payload, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("register round trip: got %+v, want %+v", out, in)
	}

	respIn := RegisterResponse{Gen: 42, HeartbeatMS: 1000, Transport: TransportBinary}
	payload = frameRoundTrip(t, msgRegisterResp, func(dst []byte) []byte {
		return appendRegisterResponse(dst, respIn)
	})
	var respOut RegisterResponse
	if err := decodeRegisterResponse(payload, &respOut); err != nil {
		t.Fatal(err)
	}
	if respOut != respIn {
		t.Fatalf("register response round trip: got %+v, want %+v", respOut, respIn)
	}
}

func TestCodecLeaseRoundTrip(t *testing.T) {
	// One decode target across both requests, as the binary server reuses
	// its per-connection scratch: the results of the first must not leak
	// into the second, which carries none.
	bare := LeaseRequest{ID: "node-a", Gen: 7, Max: 64, WaitMS: 2000}
	carrying := bare
	carrying.Results = []WireResult{
		{Dispatch: 201, Task: 5, Micros: 1234},
		{Dispatch: 202, Task: 6, Micros: 5678},
	}
	var reqOut LeaseRequest
	for _, reqIn := range []LeaseRequest{carrying, bare} {
		payload := frameRoundTrip(t, msgLease, func(dst []byte) []byte {
			return appendLeaseRequest(dst, reqIn)
		})
		if err := decodeLeaseRequest(payload, &reqOut); err != nil {
			t.Fatal(err)
		}
		if reqOut.ID != reqIn.ID || reqOut.Gen != reqIn.Gen || reqOut.Max != reqIn.Max ||
			reqOut.WaitMS != reqIn.WaitMS || len(reqOut.Results) != len(reqIn.Results) {
			t.Fatalf("lease request round trip: got %+v, want %+v", reqOut, reqIn)
		}
		for i, res := range reqIn.Results {
			if reqOut.Results[i] != res {
				t.Fatalf("lease-carried result %d: got %+v, want %+v", i, reqOut.Results[i], res)
			}
		}
	}
	// A request without results is byte for byte the layout that predates
	// the section: a peer that never heard of it still decodes.
	old := appendI64(appendU32(appendI64(appendStr(nil, bare.ID), bare.Gen), uint32(bare.Max)), bare.WaitMS)
	if got := appendLeaseRequest(nil, bare); !bytes.Equal(got, old) {
		t.Errorf("lease request without results = % x, want the old layout % x", got, old)
	}
	if got := len(appendLeaseRequest(nil, carrying)); got != len(old)+4+len(carrying.Results)*resultWireSize {
		t.Errorf("lease request with results is %d bytes, want %d", got, len(old)+4+len(carrying.Results)*resultWireSize)
	}

	tasks := []WireTask{
		{Dispatch: 101, Task: 1, Work: Work{Cost: 1.5, SleepUS: 200, Spin: 3}},
		{Dispatch: 102, Task: 2, Work: Work{Spin: 1_000_000}},
		{Dispatch: 103, Task: 3},
	}
	payload := frameRoundTrip(t, msgLeaseResp, func(dst []byte) []byte {
		return appendLeaseResponse(dst, tasks)
	})
	out, err := decodeLeaseResponse(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tasks, out) {
		t.Fatalf("lease batch round trip: got %+v, want %+v", out, tasks)
	}
	if got := len(payload); got != 4+len(tasks)*leaseTaskWireSize {
		t.Errorf("lease payload size = %d, want %d", got, 4+len(tasks)*leaseTaskWireSize)
	}
}

func TestCodecResultsRoundTrip(t *testing.T) {
	in := ResultsRequest{ID: "node-a", Gen: 9, Results: []WireResult{
		{Dispatch: 201, Task: 5, Micros: 1234},
		{Dispatch: 202, Task: 6, Micros: 5678},
	}}
	payload := frameRoundTrip(t, msgResults, func(dst []byte) []byte {
		return appendResultsRequest(dst, in)
	})
	var out ResultsRequest
	if err := decodeResultsRequest(payload, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("results round trip: got %+v, want %+v", out, in)
	}
}

func TestCodecIDGenAndErrorRoundTrip(t *testing.T) {
	payload := frameRoundTrip(t, msgHeartbeat, func(dst []byte) []byte {
		return appendIDGen(dst, "node-b", 13)
	})
	var id string
	var gen int64
	if err := decodeIDGen(payload, &id, &gen); err != nil {
		t.Fatal(err)
	}
	if id != "node-b" || gen != 13 {
		t.Fatalf("idgen round trip: got (%q, %d)", id, gen)
	}

	payload = frameRoundTrip(t, msgError, func(dst []byte) []byte {
		return appendError(dst, 410, "gone")
	})
	code, msg, err := decodeError(payload)
	if err != nil {
		t.Fatal(err)
	}
	if code != 410 || msg != "gone" {
		t.Fatalf("error round trip: got (%d, %q)", code, msg)
	}
	if !errors.Is(wireError(code, msg), ErrGone) {
		t.Error("wire error 410 did not map to ErrGone")
	}
}

func TestReadFrameMatchesDecodeFrame(t *testing.T) {
	frame := finishFrame(appendIDGen(beginFrame(nil, msgLeave), "n", 1))
	typ, payload, _, err := readFrame(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatal(err)
	}
	var id string
	var gen int64
	if err := decodeIDGen(payload, &id, &gen); err != nil {
		t.Fatal(err)
	}
	if typ != msgLeave || id != "n" || gen != 1 {
		t.Fatalf("readFrame: typ=%d id=%q gen=%d", typ, id, gen)
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	frame := finishFrame(appendIDGen(beginFrame(nil, msgHeartbeat), "node", 5))

	bad := append([]byte(nil), frame...)
	bad[0] = 'G' // not a frame
	if _, _, err := decodeFrame(bad); err == nil {
		t.Error("bad magic accepted")
	}

	bad = append([]byte(nil), frame...)
	bad[1] = frameVersion + 1
	if _, _, err := decodeFrame(bad); err == nil {
		t.Error("bad version accepted")
	}

	bad = append([]byte(nil), frame...)
	bad[len(bad)-1] ^= 0xFF // flip a payload bit: CRC must catch it
	if _, _, err := decodeFrame(bad); err != errFrameCRC {
		t.Errorf("corrupted payload err = %v, want errFrameCRC", err)
	}

	if _, _, err := decodeFrame(frame[:frameHeaderSize-1]); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestDecodeRejectsTruncatedPayloads(t *testing.T) {
	one := []WireResult{{Dispatch: 1, Task: 1, Micros: 1}}
	full := appendResultsRequest(nil, ResultsRequest{ID: "n", Gen: 1, Results: one})
	for cut := 0; cut < len(full); cut++ {
		var out ResultsRequest
		if err := decodeResultsRequest(full[:cut], &out); err == nil {
			t.Fatalf("truncation at %d/%d accepted", cut, len(full))
		}
	}
	// A lease request cut anywhere but at the end of its fixed fields —
	// where it is a whole request without results — is refused too, as is
	// a results count the payload cannot hold.
	lease := appendLeaseRequest(nil, LeaseRequest{ID: "n", Gen: 1, Max: 8, WaitMS: 100, Results: one})
	fixed := len(lease) - 4 - resultWireSize
	for cut := 0; cut < len(lease); cut++ {
		var out LeaseRequest
		if err := decodeLeaseRequest(lease[:cut], &out); (err == nil) != (cut == fixed) {
			t.Fatalf("lease request truncated at %d/%d: err = %v", cut, len(lease), err)
		}
	}
	overcount := append([]byte(nil), lease...)
	overcount[fixed] = 2
	var out LeaseRequest
	if err := decodeLeaseRequest(overcount, &out); err == nil {
		t.Error("results count beyond the payload accepted")
	}
}

// TestCodecHotPathAllocations pins the zero-allocation claim at the codec
// layer: with scratch reused, encoding and decoding a full lease/results
// exchange allocates nothing.
func TestCodecHotPathAllocations(t *testing.T) {
	tasks := make([]WireTask, 64)
	for i := range tasks {
		tasks[i] = WireTask{Dispatch: int64(i + 1), Task: i, Work: Work{Spin: 100}}
	}
	buf := make([]byte, 0, 8192)
	scratch := make([]WireTask, 0, 64)
	if n := testing.AllocsPerRun(200, func() {
		buf = finishFrame(appendLeaseResponse(beginFrame(buf[:0], msgLeaseResp), tasks))
		_, payload, err := decodeFrame(buf)
		if err != nil {
			t.Fatal(err)
		}
		var derr error
		scratch, derr = decodeLeaseResponse(payload, scratch[:0])
		if derr != nil || len(scratch) != len(tasks) {
			t.Fatalf("decode: %v (%d tasks)", derr, len(scratch))
		}
	}); n != 0 {
		t.Errorf("lease encode+decode allocates %.1f/op, want 0", n)
	}

	req := ResultsRequest{ID: "node-a", Gen: 3, Results: make([]WireResult, 64)}
	for i := range req.Results {
		req.Results[i] = WireResult{Dispatch: int64(i + 1), Task: i, Micros: int64(i)}
	}
	var out ResultsRequest
	out.Results = make([]WireResult, 0, 64)
	if n := testing.AllocsPerRun(200, func() {
		buf = finishFrame(appendResultsRequest(beginFrame(buf[:0], msgResults), req))
		_, payload, err := decodeFrame(buf)
		if err != nil {
			t.Fatal(err)
		}
		if derr := decodeResultsRequest(payload, &out); derr != nil || len(out.Results) != 64 {
			t.Fatalf("decode: %v (%d results)", derr, len(out.Results))
		}
	}); n != 0 {
		t.Errorf("results encode+decode allocates %.1f/op, want 0", n)
	}
}

// FuzzFrameDecode asserts the frame decoder and every message decoder
// degrade to errors — never panics or hangs — on arbitrary input.
func FuzzFrameDecode(f *testing.F) {
	f.Add(finishFrame(appendRegisterRequest(beginFrame(nil, msgRegister),
		RegisterRequest{ID: "n", Capacity: 2, SpeedOPS: 1e6, Transports: []string{"binary", "json"}})))
	f.Add(finishFrame(appendLeaseResponse(beginFrame(nil, msgLeaseResp),
		[]WireTask{{Dispatch: 1, Task: 1, Work: Work{Spin: 5}}})))
	f.Add(finishFrame(appendResultsRequest(beginFrame(nil, msgResults),
		ResultsRequest{ID: "n", Gen: 1, Results: []WireResult{{Dispatch: 1, Task: 1, Micros: 9}}})))
	f.Add(finishFrame(appendLeaseRequest(beginFrame(nil, msgLease),
		LeaseRequest{ID: "n", Gen: 1, Max: 8, WaitMS: 100, Results: []WireResult{{Dispatch: 1, Task: 1, Micros: 9}}})))
	f.Add(finishFrame(appendError(beginFrame(nil, msgError), 410, "gone")))
	f.Add([]byte{frameMagic, frameVersion, msgOK, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte("GET /cluster/v1/nodes HTTP/1.1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := decodeFrame(data)
		if err != nil {
			return
		}
		// A structurally valid frame: every decoder must stay in bounds.
		switch typ {
		case msgRegister:
			var req RegisterRequest
			decodeRegisterRequest(payload, &req)
		case msgRegisterResp:
			var resp RegisterResponse
			decodeRegisterResponse(payload, &resp)
		case msgLease:
			var req LeaseRequest
			decodeLeaseRequest(payload, &req)
		case msgLeaseResp:
			decodeLeaseResponse(payload, nil)
		case msgResults:
			var req ResultsRequest
			decodeResultsRequest(payload, &req)
		case msgHeartbeat, msgLeave:
			var id string
			var gen int64
			decodeIDGen(payload, &id, &gen)
		case msgError:
			decodeError(payload)
		}
	})
}
