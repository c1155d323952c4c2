package cluster

// noiseSource is math/rand's seeded generator — the additive lagged-Fibonacci
// source x[n] = x[n-607] + x[n-273] behind rand.NewSource — with the same
// stream bit for bit and a Seed that costs nothing.
//
// math/rand fills the 607-word state on every Seed by stepping the
// Lehmer generator x -> 48271·x mod 2³¹−1 three times per word, 1841 steps in
// a chain. Step k of that chain is seed·48271^k mod 2³¹−1, so word i — steps
// 21+3i, 22+3i and 23+3i — is a closed form of the seed and a table of powers
// computed once. Seed therefore only reduces and stores the seed; a word is
// filled in when a draw first reaches it. Draw n of a freshly seeded source
// reads words 334−n (feed) and 607−n (tap) and writes the former: the feed
// word is one nothing has touched through draw 334, the tap word through
// draw 273 (then it meets what the feed wrote), and from draw 335 on every
// word has been filled. A run that draws 50 variates fills 100 words, a
// replayed run that draws none fills none.
type noiseSource struct {
	tap, feed int
	cold      int    // draws left whose feed word is still unfilled
	seed      uint64 // reduced into [1, noiseMod)
	vec       [noiseLen]int64
}

const (
	noiseLen = 607
	noiseTap = 273
	noiseMod = 1<<31 - 1 // the Lehmer modulus, a Mersenne prime
	noiseMul = 48271
)

// noisePow[i] is 48271^(21+3i) mod 2³¹−1: what the seed is multiplied by to
// reach the first of word i's three Lehmer steps. Written once, here.
var noisePow = func() (pow [noiseLen]uint32) {
	x := uint64(1)
	for k := 1; k <= 21+3*(noiseLen-1); k++ {
		x = x * noiseMul % noiseMod
		if k >= 21 && (k-21)%3 == 0 {
			pow[(k-21)/3] = uint32(x)
		}
	}
	return pow
}()

// Seed implements rand.Source.
func (s *noiseSource) Seed(seed int64) {
	s.tap = 0
	s.feed = noiseLen - noiseTap
	s.cold = noiseLen - noiseTap

	seed %= noiseMod
	if seed < 0 {
		seed += noiseMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
}

// word returns word i of the state Seed stands for.
func (s *noiseSource) word(i int) int64 {
	x1 := s.seed * uint64(noisePow[i]) % noiseMod
	x2 := x1 * noiseMul % noiseMod
	x3 := x1 * (noiseMul * noiseMul % noiseMod) % noiseMod
	return int64(x1)<<40 ^ int64(x2)<<20 ^ int64(x3) ^ noiseCooked[i]
}

// Uint64 implements rand.Source64.
func (s *noiseSource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += noiseLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += noiseLen
	}
	if s.cold > 0 {
		s.cold--
		s.vec[s.feed] = s.word(s.feed)
		if s.tap >= noiseLen-noiseTap { // above where the feed started
			s.vec[s.tap] = s.word(s.tap)
		}
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 implements rand.Source.
func (s *noiseSource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
