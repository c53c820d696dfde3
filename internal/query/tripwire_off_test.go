//go:build !tripwire

package query

const tripwireEnabled = false
