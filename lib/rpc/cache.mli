include module type of struct
  include E9_core.Cache
end
