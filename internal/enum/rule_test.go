package enum_test

import (
	"errors"

	"kaskade/internal/enum"
	"kaskade/internal/gql"
	"kaskade/internal/rewrite"
)

func init() {
	enum.HasRule = func(q gql.Query, c enum.Candidate) bool {
		_, err := rewrite.Apply(q, c, nil)
		return !errors.Is(err, rewrite.ErrNoRule)
	}
}
