package mpirt

import "testing"

func BenchmarkAllreduce16(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := NewWorld(16)
		w.Run(func(c *Comm) {
			c.AllreduceScalar(OpSum, float64(c.Rank()))
		})
	}
}

func BenchmarkPingPong(b *testing.B) {
	w := NewWorld(2)
	b.ResetTimer()
	w.Run(func(c *Comm) {
		buf := make([]float64, 128)
		for i := 0; i < b.N; i++ {
			if c.Rank() == 0 {
				c.Send(1, 0, buf)
				c.Recv(1, 1, buf)
			} else {
				c.Recv(0, 0, buf)
				c.Send(0, 1, buf)
			}
		}
	})
}

var crcSink uint32

// BenchmarkPayloadCRC hashes an 8 KiB payload; its MB/s is the ceiling
// of what the benchmark reports as mpirt.p2p_mb_per_s.
func BenchmarkPayloadCRC(b *testing.B) {
	buf := make([]float64, 1024)
	for i := range buf {
		buf[i] = float64(i) * 1.25
	}
	b.SetBytes(int64(8 * len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		crcSink = payloadCRC(buf)
	}
}

// BenchmarkSendRecvRetry is one message through a world with the
// ladder's retry policy on: payload copy from the freelist, retransmit
// log entry, CRC both ends, acknowledgement, recycle. Warm, it
// allocates nothing (no receive deadline, as in a fault-free ladder run:
// a deadline costs its timer).
func BenchmarkSendRecvRetry(b *testing.B) {
	w, tx, rx := retryPair(nil)
	w.SetRecvTimeout(0)
	data, buf := make([]float64, 128), make([]float64, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.Send(1, 0, data)
		rx.Recv(0, 0, buf)
	}
}
