// Fixture: known-bad randomness sources. randflow flags the forbidden
// imports and every resolved call into them. `// want <analyzer>`
// comments mark the lines each analyzer must flag.
package fixture

import (
	crand "crypto/rand" // want randflow
	"math/rand"         // want randflow
	"time"
)

func draw() float64 {
	return rand.New(rand.NewSource(time.Now().UnixNano())).Float64() // want randflow
}

func fill(b []byte) {
	_, _ = crand.Read(b) // want randflow
}

func reseed(r *rand.Rand) {
	r.Seed(time.Now().Unix()) // want randflow
}
