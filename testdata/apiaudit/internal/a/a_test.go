package a

import "testing"

func TestFixture(t *testing.T) { Unused() }
