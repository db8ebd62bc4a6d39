//go:build race

package engine

func init() { raceBuild = true }
