package gpusim

import (
	"math/bits"
	"math/rand"
	"testing"
)

// TestWakeWheelOrder drives the wake wheel the way the event loop does
// — jump to the next filed cycle, drain its SMs, refile each — with
// random wakes near, at the edge of the wheel's span, beyond it and
// never, and checks every drain against a scan of all SMs' wakes: the
// earliest wake, and the SMs filed under it in index order.
func TestWakeWheelOrder(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, numSMs := range []int{1, 7, 64, 65, 130, 1024} {
		wh := newWakeWheel(numSMs)
		wake := make([]uint64, numSMs)
		for si := range wake {
			wh.file(si, 0, 0)
		}
		var now uint64
		for round := 0; round < 2000; round++ {
			want := uint64(blockedAt)
			for _, w := range wake {
				want = min(want, w)
			}
			c, ok := wh.next(now)
			if want == blockedAt {
				if ok {
					t.Fatalf("%d SMs, round %d: next %d with nothing filed", numSMs, round, c)
				}
				break
			}
			if !ok || c != want {
				t.Fatalf("%d SMs, round %d: next %d (%v), want %d", numSMs, round, c, ok, want)
			}
			var got []int
			row := wh.take(c)
			for wi, word := range row {
				row[wi] = 0
				for ; word != 0; word &= word - 1 {
					got = append(got, wi<<6+bits.TrailingZeros64(word))
				}
			}
			var due []int
			for si, w := range wake {
				if w == c {
					due = append(due, si)
				}
			}
			if len(got) != len(due) {
				t.Fatalf("%d SMs, cycle %d: drained %v, want %v", numSMs, c, got, due)
			}
			for i := range got {
				if got[i] != due[i] {
					t.Fatalf("%d SMs, cycle %d: drained %v, want %v", numSMs, c, got, due)
				}
			}
			for _, si := range got {
				switch n := r.Intn(20); {
				case n == 0:
					wake[si] = blockedAt
				case n < 3:
					wake[si] = c + wheelSlots + uint64(r.Intn(4*wheelSlots))
				case n < 5:
					wake[si] = c + wheelSlots - 1 - uint64(r.Intn(8))
				default:
					wake[si] = c + 1 + uint64(r.Intn(64))
				}
				wh.file(si, wake[si], c)
			}
			now = c + 1
		}
	}
}
