package mpi

import "testing"

func TestStatsSub(t *testing.T) {
	before := Stats{KindStats: KindStats{
		BytesSent: 100, BytesRecv: 50, MsgsSent: 10, MsgsRecv: 5,
		Collectives: 2, CollectiveBytes: 64, CollectiveMsgs: 4,
	}}
	after := Stats{KindStats: KindStats{
		BytesSent: 250, BytesRecv: 80, MsgsSent: 13, MsgsRecv: 9,
		Collectives: 3, CollectiveBytes: 96, CollectiveMsgs: 6,
	}}
	d := after.Sub(before)
	want := Stats{KindStats: KindStats{
		BytesSent: 150, BytesRecv: 30, MsgsSent: 3, MsgsRecv: 4,
		Collectives: 1, CollectiveBytes: 32, CollectiveMsgs: 2,
	}}
	if d != want {
		t.Fatalf("Sub = %+v, want %+v", d, want)
	}
	// Sub then Add round-trips back to the later snapshot.
	sum := before
	sum.Add(d)
	if sum != after {
		t.Fatalf("before + delta = %+v, want %+v", sum, after)
	}
}
