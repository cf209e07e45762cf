// Package fixture exercises allow-directive scoping: a directive suppresses
// only the analyzer it names, stacked whole-line directives cover the same
// statement, and the trailing form covers its own line. dettaint's aliases
// each cover one source kind: detwallclock a wall-clock read, detrand a
// global-PRNG draw, and neither a call chain.
package fixture

import (
	"math/rand"
	"time"
)

// WrongName carries an allow for detrand, which must not silence the
// wall-clock finding on the next line.
func WrongName() time.Time {
	//qoslint:allow detrand names the wrong analyzer on purpose
	return time.Now()
}

// Stacked suppresses two different analyzers on one statement.
func Stacked(a float64) bool {
	//qoslint:allow detwallclock fixture boundary
	//qoslint:allow floateq fixture exact sentinel
	return time.Since(time.Unix(0, 0)).Seconds() == a
}

// HalfAllowed allows only floateq; the wall-clock finding on the same
// line must survive.
func HalfAllowed(a float64) bool {
	//qoslint:allow floateq fixture exact sentinel
	return time.Since(time.Unix(0, 0)).Seconds() == a
}

// Trailing uses the same-line form.
func Trailing() time.Time {
	return time.Now() //qoslint:allow detwallclock fixture boundary
}

// CallsTrailing calls a sanctioned source: the annotation on Trailing's
// read keeps the taint from reaching this caller.
func CallsTrailing() time.Time {
	return Trailing()
}

// ClockAllowed allows the wall-clock read only; the global-PRNG draw on the
// same line must survive.
func ClockAllowed() int64 {
	return time.Now().Unix() + int64(rand.Intn(10)) //qoslint:allow detwallclock fixture boundary
}

// RandAllowed allows the global-PRNG draw only; the wall-clock read on the
// same line must survive.
func RandAllowed() int64 {
	return time.Now().Unix() + int64(rand.Intn(10)) //qoslint:allow detrand fixture boundary
}

// BothAllowed names dettaint itself, which covers both sources.
func BothAllowed() int64 {
	return time.Now().Unix() + int64(rand.Intn(10)) //qoslint:allow dettaint fixture boundary
}

// ChainNotAllowed calls ClockAllowed, still tainted by its draw: an alias
// names a direct source, so it does not silence the call-chain finding.
func ChainNotAllowed() int64 {
	return ClockAllowed() //qoslint:allow detwallclock an alias does not cover a call chain
}
