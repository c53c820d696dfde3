//go:build !tripwire

package validate

const tripwireEnabled = false
