package main

import (
	"bytes"
	"testing"
)

// normalize returns body with every wall-clock number replaced by 0: the
// bytes normalizedHash hashes.
func normalize(body []byte) []byte {
	out := make([]byte, 0, len(body))
	for {
		i := bytes.Index(body, timingKey)
		if i < 0 {
			return append(out, body...)
		}
		i += len(timingKey)
		out = append(out, body[:i]...)
		out = append(out, '0')
		body = body[i+digitRun(body[i:]):]
	}
}

func TestNormalizedHashMatchesNormalize(t *testing.T) {
	body := []byte(`{"stats":{"split_ns":1234,"solver":{"duration_ns":-5,"phases":3}},"energy":1.5,"total_ns":9}` + "\n")
	want := []byte(`{"stats":{"split_ns":0,"solver":{"duration_ns":0,"phases":3}},"energy":1.5,"total_ns":0}` + "\n")
	if got := normalize(body); string(got) != string(want) {
		t.Fatalf("normalize = %s, want %s", got, want)
	}
	other := []byte(`{"stats":{"split_ns":7,"solver":{"duration_ns":8,"phases":3}},"energy":1.5,"total_ns":1000000}` + "\n")
	if normalizedHash(body) != normalizedHash(want) || normalizedHash(body) != normalizedHash(other) {
		t.Fatal("bodies differing only in wall-clock fields hash differently")
	}
	changed := []byte(`{"stats":{"split_ns":7,"solver":{"duration_ns":8,"phases":4}},"energy":1.5,"total_ns":1}` + "\n")
	if normalizedHash(changed) == normalizedHash(body) {
		t.Fatal("a changed counter did not change the hash")
	}
}
