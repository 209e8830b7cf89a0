include Faerie_obs.Json
