//go:build race

package robustdb

func init() { raceBuild = true }
