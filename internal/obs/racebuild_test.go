//go:build race

package obs

func init() { raceBuild = true }
